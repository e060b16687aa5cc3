//! What the benchmark reads from the kernel about its own process: CPU
//! time, peak resident memory, the work directory's filesystem, and the
//! commit of the checkout it runs in.

use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn syncfs(fd: c_int) -> c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user+system time of every thread of
/// the process, exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User+system CPU time consumed so far by the whole process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on
    // Linux) for the duration of the call, and the clock id is one the
    // kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Writes back every dirty page and journal entry of the filesystem
/// holding `dir`, so that write-back of earlier work does not land inside
/// the next timed window.
pub fn sync_filesystem(dir: &Path) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    let handle = std::fs::File::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // SAFETY: the descriptor belongs to `handle`, which stays open for the
    // whole call; syncfs only reads it.
    let rc = unsafe { syncfs(handle.as_raw_fd()) };
    if rc != 0 {
        return Err(format!(
            "syncfs({}): {}",
            dir.display(),
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Resets the process's peak resident set (`VmHWM`) to its current size,
/// so the next [`peak_rss_kb`] covers only what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size (`VmHWM`) in kB since start or the last reset.
pub fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Filesystem type of the mount holding `path` (e.g. `ext4`, `tmpfs`),
/// from the longest mount point in `/proc/self/mountinfo` that prefixes it.
pub fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent dev root mount-point opts [optional...] - fstype ...
        let mut halves = line.splitn(2, " - ");
        let (Some(head), Some(tail)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Commit of the checkout in the current directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `std::thread::available_parallelism`, or 1 when it cannot be read.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > t0);
    }

    #[test]
    fn peak_rss_resets_and_grows() {
        reset_peak_rss().unwrap();
        let before = peak_rss_kb().unwrap();
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        let after = peak_rss_kb().unwrap();
        drop(block);
        assert!(after >= before + 32 * 1024, "{before} kB -> {after} kB");
    }
}
