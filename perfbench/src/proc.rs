//! Child processes timed from outside: every stdout/stderr line is
//! stamped on arrival, the exit is reaped by `wait4` so the child's own
//! peak RSS comes back with it, and a hard deadline kills whatever is
//! still running.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lines of one output pipe, each with the instant it was read.
#[derive(Default)]
struct Lines {
    lines: Vec<(Instant, String)>,
    closed: bool,
}

/// One pipe's lines plus a condition variable for waiters.
#[derive(Default)]
pub struct Pipe {
    state: Mutex<Lines>,
    cv: Condvar,
}

impl Pipe {
    fn pump(self: Arc<Self>, r: impl Read) {
        for line in BufReader::new(r).lines() {
            let Ok(line) = line else { break };
            let mut s = self.state.lock().expect("pipe lock poisoned");
            s.lines.push((Instant::now(), line));
            self.cv.notify_all();
        }
        self.state.lock().expect("pipe lock poisoned").closed = true;
        self.cv.notify_all();
    }

    /// Blocks until a line satisfying `pred` arrives, the pipe closes, or
    /// `deadline` passes.
    pub fn wait_for(
        &self,
        deadline: Instant,
        pred: impl Fn(&str) -> bool,
    ) -> Option<(Instant, String)> {
        let mut s = self.state.lock().expect("pipe lock poisoned");
        loop {
            if let Some((t, l)) = s.lines.iter().find(|(_, l)| pred(l)) {
                return Some((*t, l.clone()));
            }
            let now = Instant::now();
            if s.closed || now >= deadline {
                return None;
            }
            s = self.cv.wait_timeout(s, deadline - now).expect("pipe lock poisoned").0;
        }
    }

    /// A copy of every line read so far.
    pub fn lines(&self) -> Vec<(Instant, String)> {
        self.state.lock().expect("pipe lock poisoned").lines.clone()
    }
}

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// When `wait4` returned.
    pub at: Instant,
    /// True for exit code 0.
    pub success: bool,
    /// Peak resident set size of the child, in KiB.
    pub max_rss_kb: i64,
}

type ExitSlot = Arc<(Mutex<Option<Exit>>, Condvar)>;

/// A running child with captured, timestamped output.
pub struct Proc {
    child: Child,
    /// When the child was spawned.
    pub started: Instant,
    /// Captured standard output.
    pub out: Arc<Pipe>,
    /// Captured standard error.
    pub err: Arc<Pipe>,
    exit: ExitSlot,
    threads: Vec<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `program args…` with stdin closed and both outputs captured.
    pub fn spawn(program: &str, args: &[String]) -> std::io::Result<Proc> {
        let started = Instant::now();
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let out = Arc::new(Pipe::default());
        let err = Arc::new(Pipe::default());
        let exit: ExitSlot = Arc::new((Mutex::new(None), Condvar::new()));
        let stdout = child.stdout.take().expect("stdout piped");
        let stderr = child.stderr.take().expect("stderr piped");
        let pid = child.id();
        let mut threads = Vec::with_capacity(3);
        let o = Arc::clone(&out);
        threads.push(std::thread::spawn(move || o.pump(stdout)));
        let e = Arc::clone(&err);
        threads.push(std::thread::spawn(move || e.pump(stderr)));
        let slot = Arc::clone(&exit);
        threads.push(std::thread::spawn(move || {
            let (success, max_rss_kb) = reap(pid);
            let ex = Exit { at: Instant::now(), success, max_rss_kb };
            *slot.0.lock().expect("exit lock poisoned") = Some(ex);
            slot.1.notify_all();
        }));
        Ok(Proc { child, started, out, err, exit, threads })
    }

    /// Waits for the exit until `deadline`; on timeout kills the child
    /// and returns `None`. Always joins the pipe and reaper threads.
    pub fn finish(mut self, deadline: Instant) -> Option<Exit> {
        let ended = {
            let mut slot = self.exit.0.lock().expect("exit lock poisoned");
            loop {
                if slot.is_some() {
                    break *slot;
                }
                let now = Instant::now();
                if now >= deadline {
                    break None;
                }
                slot =
                    self.exit.1.wait_timeout(slot, deadline - now).expect("exit lock poisoned").0;
            }
        };
        if ended.is_none() {
            // The reaper has not collected the pid yet, so it still names
            // this child.
            let _ = self.child.kill();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        ended
    }

    /// Kills the child now (if still running) and joins its threads.
    pub fn kill(self) {
        let _ = self.finish(Instant::now());
    }
}

/// Upper bound for one spawned process, so a wedged command cannot hang
/// the benchmark.
pub const HARD_TIMEOUT: Duration = Duration::from_secs(60);

#[cfg(target_os = "linux")]
fn reap(pid: u32) -> (bool, i64) {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        max_rss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    }
    let mut status = 0i32;
    let mut usage = RUsage { times: [0; 4], max_rss: 0, rest: [0; 13] };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C `int` and `struct rusage` that wait4 fills.
        let r = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
        if r == pid as i32 {
            break;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return (false, 0);
        }
    }
    // WIFEXITED && WEXITSTATUS == 0 is exactly status == 0.
    (status == 0, usage.max_rss)
}

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reaps children with Linux wait4");
