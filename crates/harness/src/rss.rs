//! Peak-resident-set measurement via `/proc`, dependency-free.
//!
//! The streaming engine's whole point is bounded memory, so the bench
//! reports peak RSS next to blocks/sec. Linux exposes exactly the two
//! hooks needed and nothing else is required:
//!
//! * `VmHWM` in `/proc/self/status` — the process's resident-set
//!   high-water mark, in kibibytes;
//! * writing `5` to `/proc/self/clear_refs` — resets that high-water mark
//!   to the *current* RSS, so a measurement window can start fresh.
//!
//! Both are best-effort: on non-Linux hosts (or a locked-down `/proc`)
//! [`peak_rss_bytes`] returns `None` and [`reset_peak_rss`] is a no-op, and
//! callers print `-` instead of a number. Measurements are process-wide:
//! a reading covers everything live in the process, not just the code
//! under test — reset immediately before the region of interest and keep
//! the region free of unrelated allocation.

/// The process's peak resident set in bytes since start (or since the last
/// [`reset_peak_rss`]), if the platform exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Resets the peak-RSS high-water mark to the current resident set.
/// Returns `false` (and changes nothing) where unsupported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Extracts `VmHWM` from `/proc/self/status` text. The kernel prints the
/// value in kB (kibibytes) with a unit suffix: `VmHWM:      1234 kB`.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024)
}

/// Formats a byte count for human output: `-` when unknown, otherwise the
/// largest binary unit that keeps three significant digits.
pub fn format_bytes(bytes: Option<u64>) -> String {
    let Some(b) = bytes else {
        return "-".to_string();
    };
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{} KiB", b >> 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_status_format() {
        let status = "Name:\trepro\nVmPeak:\t  123456 kB\nVmHWM:\t   98304 kB\nVmRSS:\t 4 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(98_304 * 1024));
        assert_eq!(parse_vm_hwm("Name:\trepro\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn formats_bytes_at_every_magnitude() {
        assert_eq!(format_bytes(None), "-");
        assert_eq!(format_bytes(Some(512 * 1024)), "512 KiB");
        assert_eq!(format_bytes(Some(3 * 1024 * 1024 + 512 * 1024)), "3.5 MiB");
        assert_eq!(format_bytes(Some(2 * 1024 * 1024 * 1024)), "2.00 GiB");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_reading_is_sane() {
        let peak = peak_rss_bytes().expect("linux exposes VmHWM");
        assert!(peak > 1024 * 1024, "a test process surely holds >1 MiB, got {peak}");
        // Other test threads of this process allocate concurrently, and their
        // growth past the old peak between the two reads rightly raises the
        // mark; retry until one attempt runs undisturbed.
        let undisturbed = (0..50).any(|_| {
            let peak = peak_rss_bytes().expect("linux exposes VmHWM");
            reset_peak_rss();
            let after = peak_rss_bytes().expect("still readable after reset");
            after <= peak || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                false
            }
        });
        assert!(undisturbed, "reset cannot raise the high-water mark");
    }
}
