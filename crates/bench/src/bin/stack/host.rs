//! What the benchmark reads from and leaves on the host: `/proc`
//! figures of its own process, the host description every result row
//! carries, and the scratch directory stores and clusters live in.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::{obj, Json};

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used so far, `(user, system)`, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks; Linux fixes
/// `USER_HZ` at 100).
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces: count from its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, sys) = (ticks(), ticks());
    (user / 100.0, sys / 100.0)
}

/// Restricts this process to the lowest-numbered CPU it may run on and
/// returns that CPU. Call it before any thread is spawned: threads
/// inherit the mask, and `std::thread::available_parallelism` — so the
/// pipeline's default worker count — reads it. `None` if the host
/// refuses; the run then goes on unrestricted.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // The C library std already links; `pid` 0 is the calling thread.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // 1024 CPUs: the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls; the calls
    // read or write nothing else.
    unsafe {
        if sched_getaffinity(0, bytes, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let word = mask.iter().position(|w| *w != 0)?;
        let bit = mask[word].trailing_zeros();
        mask = [0u64; 16];
        mask[word] = 1 << bit;
        (sched_setaffinity(0, bytes, mask.as_ptr()) == 0).then_some(word * 64 + bit as usize)
    }
}

/// No such call off Linux: the run goes on unrestricted.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The filesystem `path` lives on, from the longest matching mount
/// point in `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// The `host` object of every result row.
pub fn host_json(scratch: &Path) -> Json {
    obj([
        (
            "cpus",
            std::thread::available_parallelism()
                .map_or(1, |c| c.get())
                .into(),
        ),
        ("scratch_dir", scratch.display().to_string().into()),
        ("scratch_fs", filesystem_of(scratch).into()),
    ])
}

/// This process's scratch directory: unique per process, next to the
/// benchmark's executable — inside the build directory, so inside the
/// checkout the benchmark was built in — and removed when dropped, on
/// success and on failure alike.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Creates the directory.
    ///
    /// # Errors
    ///
    /// The I/O error of locating the executable or creating the
    /// directory.
    pub fn create() -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let beside = exe.parent().unwrap_or(Path::new("."));
        // The counter keeps two scratches of one process (parallel unit
        // tests) apart; Relaxed, it only hands out distinct numbers.
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let root = beside.join(format!(
            "stack-scratch-{}-{}",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A path for a new store or cluster directory; never handed out
    /// twice. The directory is not created.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        // Relaxed: the counter only hands out distinct numbers.
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_figures_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        assert_ne!(filesystem_of(Path::new("/proc/self")), "unknown");
    }

    #[test]
    fn a_pinned_thread_sees_one_cpu() {
        // In a thread of its own: the mask is per thread, so the other
        // tests of this process keep theirs.
        let seen = std::thread::spawn(|| {
            pin_to_one_cpu().map(|_| std::thread::available_parallelism().map_or(0, |c| c.get()))
        })
        .join()
        .unwrap();
        assert!(matches!(seen, None | Some(1)), "{seen:?}");
    }

    #[test]
    fn scratch_is_unique_and_removed_on_drop() {
        let scratch = Scratch::create().unwrap();
        let root = scratch.root().to_path_buf();
        assert!(root.is_dir());
        let (a, b) = (scratch.fresh("store"), scratch.fresh("store"));
        assert_ne!(a, b);
        std::fs::create_dir_all(&a).unwrap();
        std::fs::write(a.join("f"), b"x").unwrap();
        drop(scratch);
        assert!(!root.exists());
    }
}
