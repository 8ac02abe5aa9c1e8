//! Measurement plumbing: host-speed calibration, layer spans kept in
//! memory, sample statistics, process memory and the host record.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// What the calibration kernel takes, in ms, on the reference host that
/// every reported time is scaled to.
pub const REFERENCE_KERNEL_MS: f64 = 4.0;

/// A fixed piece of work made only of the standard library, shaped like
/// the program's hot paths: tuples inserted into a `BTreeSet` and a
/// per-position `HashMap` index, then an index join over them. The
/// program's code never runs in it, so a change to the program cannot
/// move it; only the host's speed does. Returns its wall time in ms.
pub fn kernel_ms() -> f64 {
    let t0 = Instant::now();
    let mut index: HashMap<(u32, u64), Vec<u32>> = HashMap::new();
    let mut tuples: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut x = 0x2545_F491_4F6C_DD1D;
    for i in 0..6_000u64 {
        x = mix(x, i);
        let t = vec![x % 257, (x >> 16) % 263, (x >> 32) % 269];
        for (pos, &v) in t.iter().enumerate() {
            index.entry((pos as u32, v)).or_default().push(i as u32);
        }
        tuples.insert(t);
    }
    let mut hits = 0usize;
    for t in &tuples {
        if let Some(rows) = index.get(&(1, t[1])) {
            hits += rows
                .iter()
                .filter(|&&r| u64::from(r) % 3 == t[0] % 3)
                .count();
        }
    }
    std::hint::black_box(hits);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times intervals against the calibration kernel. The kernel runs once
/// at the start and once after every timed interval, so each interval
/// sits between two kernel runs.
pub struct Calibration {
    sensitivity: f64,
    last_ms: f64,
    /// Every kernel run's wall time (ms).
    pub log: Vec<f64>,
}

impl Calibration {
    /// `sensitivity` says how strongly the timed code's speed follows
    /// the kernel's (see `main`).
    pub fn new(sensitivity: f64) -> Calibration {
        let last_ms = kernel_ms();
        Calibration {
            sensitivity,
            last_ms,
            log: vec![last_ms],
        }
    }

    /// Runs `f`, then the kernel. Returns `f`'s result, its wall time in
    /// ms, and the factor that scales a time taken in that interval to
    /// the reference host: the reference kernel time over the mean of
    /// the two kernel times around `f`, raised to the sensitivity.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.last_ms;
        let t0 = Instant::now();
        let r = f();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.last_ms = kernel_ms();
        self.log.push(self.last_ms);
        let scale = (2.0 * REFERENCE_KERNEL_MS / (before + self.last_ms)).powf(self.sensitivity);
        (r, wall_ms, scale)
    }
}

/// One call into a layer, or one whole op: name, start and end (ns since
/// the process epoch), the op span it ran under and the op id.
struct Span {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log for the traced run. While disabled, [`Spans::time`]
/// calls straight through without reading the clock, so untraced ops pay
/// nothing for it.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    op: u64,
    op_span: u64,
    op_start_ns: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            enabled: false,
            op: 0,
            op_span: 0,
            op_start_ns: 0,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn mint(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Opens the span of op `op`; layer spans recorded until
    /// [`Spans::end_op`] are its children.
    pub fn begin_op(&mut self, op: u64, traced: bool) {
        self.enabled = traced;
        self.op = op;
        if traced {
            self.op_span = self.mint();
            self.op_start_ns = self.now_ns();
        }
    }

    pub fn end_op(&mut self, name: &'static str) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                id: self.op_span,
                parent: 0,
                op: self.op,
                name,
                start_ns: self.op_start_ns,
                end_ns,
            });
        }
        self.enabled = false;
    }

    /// Runs `f` as a call into layer `name`. Returns its result and its
    /// duration in ns (0 while disabled).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.enabled {
            return (f(), 0);
        }
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let id = self.mint();
        self.spans.push(Span {
            id,
            parent: self.op_span,
            op: self.op,
            name,
            start_ns,
            end_ns,
        });
        (r, end_ns - start_ns)
    }

    /// The span log as JSON lines, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least 10 samples above it, as
/// `(percentile, value)`: the sample at rank `n - 11` (0-based) of the
/// sorted samples. `None` below 11 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 11;
    Some((100.0 * (rank + 1) as f64 / n as f64, v[rank]))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line describing the host and the build: CPUs, CPU model, `rustc`
/// version and build profile.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" profile={profile}")
}

/// SplitMix64 finalizer: derives independent per-op seeds from the
/// workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
