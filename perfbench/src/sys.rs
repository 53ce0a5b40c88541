//! Process-level measurements and the host fingerprint: CPU time from
//! `getrusage`, peak resident set from `/proc/self`, an output digest,
//! and the JSON string helper the result lines use.

use std::fs;
use std::path::Path;
use std::process::Command;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the 64-bit Linux `struct rusage`");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// The 64-bit Linux `struct rusage`: two `timeval`s, then fourteen
/// `long` counters this benchmark does not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds of the whole process: every thread,
/// running or already joined.
pub fn process_cpu_s() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux (checked by the cfg above), and
    // RUSAGE_SELF is a valid `who`; getrusage writes only into `ru`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// Returns the allocator's free memory to the kernel, then resets the
/// process's peak resident set to its current size. The next
/// [`peak_rss_mb`] then covers only what ran in between, on top of
/// what is still allocated, as in a fresh `oscar-reports` process.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: glibc's malloc_trim takes no pointers and only releases
    // free heap pages; it is safe to call at any time.
    unsafe { malloc_trim(0) };
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set since the last [`reset_peak_rss`], in MB (10^6
/// bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// FNV-1a 64 over `bytes`, as 16 hex digits: the digest committed in
/// `digests.txt`.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// `s` as a JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs `cmd args` to completion and returns its trimmed stdout, or
/// `None` if it could not run or failed.
fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host and revision a result was measured on, as one JSON object:
/// core count, CPU model and kernel from `/proc`, `rustc -V`, the git
/// revision of the checkout (`none` outside a git work tree rooted
/// here) with its dirty flag, and the workload and seed.
pub fn fingerprint(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let here = std::env::current_dir().ok();
    let in_repo = command_output("git", &["rev-parse", "--show-toplevel"])
        .is_some_and(|top| here.as_deref() == Some(Path::new(&top)));
    let (head, dirty) = if in_repo {
        (
            command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            command_output("git", &["status", "--porcelain"]).map(|s| !s.is_empty()),
        )
    } else {
        ("none".to_string(), None)
    };
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}}}, \
         \"revision\": {{\"git_head\": {}, \"git_dirty\": {}}}, \
         \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}}}",
        jstr(&cpu_model),
        jstr(&kernel),
        jstr(&rustc),
        jstr(&head),
        dirty.map_or("null".to_string(), |d| d.to_string()),
        jstr(workload),
    )
}
