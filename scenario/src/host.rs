//! The measurement host: idle keepers that stop vCPUs from halting, and
//! the process's peak resident set.
//!
//! On a virtual machine a halted vCPU takes from tens of microseconds to
//! milliseconds to wake (the host must schedule it again), and that delay
//! lands on every request that wakes a sleeping server thread. One
//! `SCHED_IDLE` spinner per core keeps each vCPU running; the kernel runs
//! such a thread only when nothing else wants the core, and preempts it
//! at once when a server thread wakes, so the benchmark measures the
//! program's hand-offs instead of the hypervisor's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spinners running at idle priority until dropped.
pub struct IdleKeepers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleKeepers {
    /// Starts `n` keepers; returns `None` where idle priority is
    /// unavailable (then none run, since at normal priority they would
    /// compete with the server).
    pub fn start(n: usize) -> Option<IdleKeepers> {
        if !sys::can_idle() {
            return None;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if sys::set_idle_priority() {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        Some(IdleKeepers { stop, threads })
    }

    /// Stops and joins every keeper.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("idle keeper thread panicked");
        }
    }
}

/// Returns freed heap memory to the system (glibc keeps it otherwise, in
/// amounts that vary with which thread freed what).
pub fn trim_heap() {
    sys::trim_heap();
}

/// Returns freed heap memory to the system and restarts the peak
/// resident set (`VmHWM`) from the current resident set, so the next
/// [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// Cumulative steal and total CPU time of the whole machine, in clock
/// ticks (the `cpu` line of `/proc/stat`); `None` where it is unreadable.
/// Steal is time a vCPU was runnable but the hypervisor ran something
/// else, so its share over a run shows how much the host got in the way.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kb / 1024.0
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod sys {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    const SCHED_IDLE: i32 = 5;

    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        fn malloc_trim(pad: usize) -> i32;
    }

    pub fn can_idle() -> bool {
        true
    }

    /// Moves the calling thread to `SCHED_IDLE`; false if refused.
    pub fn set_idle_priority() -> bool {
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a valid `struct sched_param` that outlives the
        // call; pid 0 names the calling thread, and SCHED_IDLE requires
        // priority 0 and no privilege.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }

    pub fn trim_heap() {
        // SAFETY: glibc's malloc_trim takes no pointers and only releases
        // free memory back to the system.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod sys {
    pub fn can_idle() -> bool {
        false
    }

    pub fn set_idle_priority() -> bool {
        false
    }

    pub fn trim_heap() {}
}
