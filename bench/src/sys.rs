//! The few OS facilities the harness needs, hand-declared the way
//! `proxyd::reactor`'s `mod sys` declares epoll: no `libc` crate, Linux
//! only. Everything here observes the process *from outside* the code
//! under test — CPU clocks, `/proc/self/*`, affinity.

use std::io;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;
const PR_SET_TIMERSLACK: i32 = 29;
/// Index of `ru_nvcsw` / `ru_nivcsw` among the fourteen longs.
const RU_NVCSW: usize = 12;
const RU_NIVCSW: usize = 13;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Words in the affinity mask we pass the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

/// Pin the calling thread — and so every thread and child process it
/// later starts — to one CPU: the highest-numbered CPU the process may
/// already run on (CPU 0 takes most of a small VM's interrupts). Returns
/// the CPU chosen. Must run before any thread is spawned.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a valid, writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid buffer of the size passed; pid 0 is the caller.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Shrink the calling thread's timer slack from the default 50 µs to
/// 1 ns so paced sleeps wake when asked. Inherited by threads spawned
/// afterwards. Failure only costs pacing accuracy, which the run reports
/// as generator lateness, so it is ignored.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and no pointers.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Put the calling thread in the `SCHED_IDLE` class: it runs only when no
/// normal thread on its CPU wants to, and never preempts one.
pub fn set_sched_idle() -> io::Result<()> {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid sched_param; pid 0 is the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

fn clock_ns(clk: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(clk, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of the whole process, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Voluntary + involuntary context switches of the whole process (all
/// threads; `/proc/self/status` reports only the main thread's).
pub fn context_switches() -> u64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable rusage.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    (ru.longs[RU_NVCSW] + ru.longs[RU_NIVCSW]) as u64
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Time the hypervisor ran something else while this virtual CPU wanted to
/// run (`steal` of `/proc/stat`, all CPUs — the process tree is pinned to
/// one and the box is otherwise idle), in nanoseconds at the 10 ms
/// resolution the kernel reports it.
pub fn stolen_ns() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().next()?.strip_prefix("cpu ")?.to_owned();
            line.split_whitespace().nth(7)?.parse::<u64>().ok()
        })
        .map_or(0, |ticks| ticks * 10_000_000)
}

/// Peak resident set size of this process, KiB (`VmHWM`): since the
/// process started, or since the last [`reset_peak_rss`] that succeeded.
pub fn peak_rss_kib() -> u64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0)
}

/// Reset `VmHWM` to the current resident set size (`clear_refs` value 5).
/// Where `/proc` refuses the write the peak simply keeps covering the
/// whole run, which only makes the figure noisier.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `syscr + syscw` from `/proc/self/io`: read- and write-family system
/// calls the kernel's VFS accounting saw. `recv`/`send` on sockets bypass
/// that accounting, so the figure compares one engine with itself across
/// commits, never one engine with the other.
pub fn rw_syscalls() -> u64 {
    proc_field("/proc/self/io", "syscr:").unwrap_or(0)
        + proc_field("/proc/self/io", "syscw:").unwrap_or(0)
}

/// CPU time by daemon, summed over the process's threads by name. The
/// daemons name their threads (`origin-worker-3`, `proxy-reactor-0`,
/// `volume-center-w…`, `pb-prefetch-1`), so thread names attribute CPU
/// without touching the daemons.
#[derive(Debug, Default, Clone, Copy)]
pub struct GroupCpu {
    pub proxy_ns: u64,
    pub center_ns: u64,
    pub origin_ns: u64,
}

impl GroupCpu {
    pub fn since(&self, earlier: &GroupCpu) -> GroupCpu {
        GroupCpu {
            proxy_ns: self.proxy_ns.saturating_sub(earlier.proxy_ns),
            center_ns: self.center_ns.saturating_sub(earlier.center_ns),
            origin_ns: self.origin_ns.saturating_sub(earlier.origin_ns),
        }
    }
}

/// Read every thread's on-CPU time (`schedstat`, nanoseconds; falls back
/// to the 10 ms ticks of `stat` where the kernel lacks sched info).
pub fn group_cpu() -> GroupCpu {
    let mut out = GroupCpu::default();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let base = entry.path();
        let Ok(comm) = std::fs::read_to_string(base.join("comm")) else {
            continue; // thread exited between readdir and read
        };
        let comm = comm.trim_end();
        let slot = if comm.starts_with("proxy-") || comm.starts_with("pb-prefetch") {
            &mut out.proxy_ns
        } else if comm.starts_with("volume-center") {
            &mut out.center_ns
        } else if comm.starts_with("origin-") {
            &mut out.origin_ns
        } else {
            continue; // the generator, the taps, the harness itself
        };
        *slot += thread_ns(&base);
    }
    out
}

fn thread_ns(task: &std::path::Path) -> u64 {
    let sched = std::fs::read_to_string(task.join("schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
    if let Some(ns) = sched.filter(|&ns| ns > 0) {
        return ns;
    }
    // utime and stime are fields 14 and 15; the command name (field 2)
    // may contain spaces, so count from the closing parenthesis.
    let Ok(stat) = std::fs::read_to_string(task.join("stat")) else {
        return 0;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000_000
}

/// A fixed amount of dependent integer work, timed: the harness runs it
/// before and after each phase to see whether the host itself changed
/// speed. Returns nanoseconds per million iterations.
pub fn spin_calibration(budget: Duration) -> f64 {
    const BATCH: u64 = 1_000_000;
    let start = std::time::Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut batches = 0u64;
    while start.elapsed() < budget {
        for _ in 0..BATCH {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17) ^ 0x5555;
        }
        batches += 1;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64 / batches as f64
}
