//! The machine-facing side of the harness: CPU pinning, peak RSS, and the
//! environment block every run's output opens with.

use std::process::Command;

/// Bumped whenever the shape of the harness output changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Where the harness lives — compiled in, so the traced run finds
/// `benchmark/out/` from whatever directory it is started in.
pub const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");

#[cfg(target_os = "linux")]
mod affinity {
    // std already links libc; declaring the two symbols avoids a new
    // dependency. A 1,024-bit mask is what glibc's cpu_set_t holds.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    pub fn restrict_to(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus {
            if cpu >= WORDS * 64 {
                return false;
            }
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed and is
        // only read; pid 0 names the calling thread.
        !cpus.is_empty()
            && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }
    pub fn restrict_to(_cpus: &[usize]) -> bool {
        false
    }
}

/// Gives the process one malloc arena. glibc otherwise hands each new
/// thread one of up to `8 × nproc` arenas by what happens to be contended at
/// that instant, and the kernel under test starts a thread per goroutine:
/// `VmHWM` of the two live workloads (6-9 MiB in all) then moved by 10-20 %
/// from run to run with how many arenas got touched. Everything is pinned to
/// one CPU, so a second arena buys no parallelism, and no workload reads
/// slower for it. Must run before any thread is spawned; returns whether the
/// allocator took the setting.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn single_malloc_arena() -> bool {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt only stores an allocator tunable; no other thread
    // exists yet.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn single_malloc_arena() -> bool {
    false
}

/// The CPUs this process may run on and what the harness did with them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpus {
    /// Every CPU the process was allowed on before pinning (`nproc`).
    pub allowed: Vec<usize>,
    /// Where the calling thread — and every thread it spawns afterwards,
    /// which is every thread of the program under test — was pinned.
    pub primary: Option<usize>,
    /// Why `primary` is `None`.
    pub unpinned_reason: Option<String>,
}

/// Pins the calling thread to the last CPU it is allowed on: interrupts,
/// their soft-IRQ work and whatever started the benchmark gather on the
/// first (on the machine this was defined on CPU 0 had served thirty times
/// the RCU soft-IRQs and all the network interrupts of CPU 1). Must run
/// before any thread is spawned: children inherit the mask, which is how
/// the kernel's goroutine threads and the service workers end up on the
/// same CPU as the code that started them.
pub fn pin_primary() -> Cpus {
    let allowed = affinity::allowed();
    let Some(&primary) = allowed.last() else {
        return Cpus {
            allowed,
            primary: None,
            unpinned_reason: Some("sched_getaffinity unavailable on this platform".into()),
        };
    };
    if !affinity::restrict_to(&[primary]) {
        return Cpus {
            allowed,
            primary: None,
            unpinned_reason: Some(format!("sched_setaffinity({primary}) refused")),
        };
    }
    Cpus {
        primary: Some(primary),
        unpinned_reason: None,
        allowed,
    }
}

/// Restricts the calling thread to `cpus`: the flagged worker-scaling
/// diagnostic widening the mask for the one measurement taken unpinned, and
/// narrowing it again. Returns whether the kernel accepted the mask.
pub fn restrict_current_thread(cpus: &[usize]) -> bool {
    affinity::restrict_to(cpus)
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 without procfs.
pub fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

/// The block every run prints first: enough to tell two result sets from
/// different machines, toolchains or commits apart.
pub fn environment_block(cpus: &Cpus, one_arena: bool, seed: u64) -> String {
    let git_rev = first_line_of("git", &["-C", BENCH_DIR, "rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let rustc = first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // After pinning, available_parallelism() would say 1.
    let nproc = if cpus.allowed.is_empty() {
        std::thread::available_parallelism().map_or(0, usize::from)
    } else {
        cpus.allowed.len()
    };
    let pinned = match (&cpus.primary, &cpus.unpinned_reason) {
        (Some(cpu), _) => format!("cpu {cpu}"),
        (None, Some(why)) => format!("pinned:false ({why})"),
        (None, None) => "pinned:false".into(),
    };
    let arenas = if one_arena { "1" } else { "platform default" };
    let command_line = std::env::args().collect::<Vec<_>>().join(" ");
    format!(
        "# environment\n\
         schema_version: {SCHEMA_VERSION}\n\
         git_rev: {git_rev}\n\
         rustc: {rustc}\n\
         nproc: {nproc}\n\
         pinned: {pinned}\n\
         malloc_arenas: {arenas}\n\
         command_line: {command_line}\n\
         seed: {seed}\n"
    )
}
