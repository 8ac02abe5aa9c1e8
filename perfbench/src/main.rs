//! `perfbench` — end-to-end and per-layer benchmark of the exchange,
//! answering and update pipelines.
//!
//! ```text
//! perfbench --workload <exchange_keyed|exchange_layered|answer|update>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed loop, one client thread: each op starts when the previous
//! one has returned. Setup runs several times and reports its median;
//! then ops run until their summed latency reaches `--seconds`, at the
//! end of a whole cycle of the workload's inputs. Every timed interval
//! sits between two runs of a fixed calibration kernel, and every
//! reported time is scaled by the kernel's speed to a reference host, so
//! a shared host's changing speed does not show as a change of the
//! program (see `measure::Calibration`). Outputs
//! are checked outside the timed region; a failed check prints
//! `"correct": false` and exits 1. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced ops, reports the
//! per-layer metrics of the traced ones and writes their spans to
//! `.bench_out/`. The last stdout line is one JSON object.

mod measure;
mod workloads;

use measure::{
    host_record, median, mix, peak_rss_mb, tail, Calibration, Spans, REFERENCE_KERNEL_MS,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Answer, Exchange, Update, Workload};

/// Setup repeats at least `SETUP_MIN_REPS` times, and keeps repeating
/// (up to `SETUP_MAX_REPS`) until `SETUP_MIN_SECONDS` have passed;
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// A run ends after at most this many times `--seconds` of wall time.
const WALL_LIMIT: f64 = 1.5;

/// Every per-layer metric, in report order, with its unit. A layer the
/// workload never calls reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("parser.parse_ms", "ms"),
    ("parser.bytes", "bytes"),
    ("chase.run_ms", "ms"),
    ("chase.tgd_ms", "ms"),
    ("chase.ns_per_trigger", "ns"),
    ("chase.egd_ms", "ms"),
    ("chase.egd_steps", "count"),
    ("chase.triggers_examined", "count"),
    ("chase.triggers_fired", "count"),
    ("chase.fire_ratio", "ratio"),
    ("chase.rounds", "count"),
    ("chase.atoms_out", "count"),
    ("chase.nulls_out", "count"),
    ("core.ms", "ms"),
    ("core.atoms_in", "count"),
    ("core.atoms_out", "count"),
    ("core.kept_ratio", "ratio"),
    ("par.jobs_dispatched", "count"),
    ("par.jobs_inline", "count"),
    ("answer.cq_ms", "ms"),
    ("answer.fo_ms", "ms"),
    ("propagate.residual_nulls", "count"),
    ("propagate.residual_valuations", "count"),
    ("propagate.us_per_valuation", "us"),
    ("resume.ms", "ms"),
    ("resume.batch_rows", "count"),
    ("resume.atoms_retracted", "count"),
    ("resume.atoms_rederived", "count"),
    ("resume.rederive_ratio", "ratio"),
    ("instance.clone_ms", "ms"),
    ("eval.ucq_ms", "ms"),
    ("eval.answers", "count"),
    ("trace.overhead_frac", "ratio"),
    ("wall.op_p50_ms", "ms"),
    ("host.kernel_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let result = Args::parse().and_then(|args| {
        println!("host: {}", host_record());
        println!(
            "run: workload={} seed={} seconds={} trace={} exchange-core pool=2 threads, all else sequential",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        let seed = args.seed;
        // The last argument of `measure` is the workload's host
        // sensitivity: how strongly its op time follows the calibration
        // kernel's on a shared host. It is about the slope of log(op
        // time) against log(kernel time), measured over 20-op windows of
        // 40-60 s runs (1.49, 0.20, 1.28, 1.07 in the order below) and
        // over the medians of eight 8 s runs (2.76, 0.96, 1.47, 1.01).
        match args.workload.as_str() {
            "exchange_keyed" => measure(&args, epoch, 1.5, || Exchange::keyed(seed)),
            "exchange_layered" => measure(&args, epoch, 1.0, || Exchange::layered(seed)),
            "answer" => measure(&args, epoch, 1.25, || Answer::new(seed)),
            "update" => measure(&args, epoch, 1.0, || Update::new(seed)),
            other => Err(format!(
                "unknown workload `{other}` (exchange_keyed, exchange_layered, answer, update)"
            )),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Everything one run gathers. Times are scaled to the reference host
/// (see `measure::Calibration`) unless their name says `wall`.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    /// Latencies (ms) of untraced and traced successful ops.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    universal_ms: Vec<f64>,
    wall_untraced_ms: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// Summed op latency (ms), failed ops included.
    busy_ms: f64,
    correct: bool,
}

/// Sets the workload up several times, checks it, runs the closed
/// loop and prints the report. `Ok(false)` when an output check failed.
fn measure<W: Workload>(
    args: &Args,
    epoch: Instant,
    sensitivity: f64,
    mut setup: impl FnMut() -> Result<W, String>,
) -> Result<bool, String> {
    let mut run = Run {
        correct: true,
        ..Run::default()
    };
    let mut cal = Calibration::new(sensitivity);
    let mut built = None;
    let mut setup_wall_s = 0.0;
    while run.setup_s.len() < SETUP_MIN_REPS
        || (setup_wall_s < SETUP_MIN_SECONDS && run.setup_s.len() < SETUP_MAX_REPS)
    {
        drop(built.take());
        let (w, wall_ms, scale) = cal.time(&mut setup);
        built = Some(w?);
        setup_wall_s += wall_ms / 1e3;
        run.setup_s.push(wall_ms * scale / 1e3);
    }
    let mut w = built.expect("setup ran at least once");
    if let Err(e) = w.check_setup() {
        eprintln!("perfbench: setup check failed: {e}");
        run.correct = false;
    }

    // The loop ends once the ops' summed (scaled) latency reaches the
    // budget, at the end of a whole cycle of the workload's inputs, so
    // the number of ops and their mix do not follow the host's speed.
    // A host far slower than the reference must not hold the run past
    // its time limit: it also ends at `WALL_LIMIT` times the budget.
    let budget_ms = args.seconds as f64 * 1e3;
    let wall_limit = Duration::from_secs_f64(args.seconds as f64 * WALL_LIMIT);
    let wall = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut i = 0u64;
    while run.correct
        && !(run.busy_ms >= budget_ms && i.is_multiple_of(w.cycle_len()))
        && wall.elapsed() < wall_limit
    {
        w.prepare(i);
        let traced = args.trace && i % 2 == 1;
        spans.begin_op(i, traced);
        let (result, wall_ms, scale) = cal.time(|| w.run(&mut spans));
        spans.end_op(w.op_name());
        let ms = wall_ms * scale;
        run.busy_ms += ms;
        run.attempted += 1;
        if let Err(e) = result {
            run.failed += 1;
            eprintln!("perfbench: op {i} failed: {e}");
            i += 1;
            continue;
        }
        if traced {
            run.traced_ms.push(ms);
            let mut layers = Vec::new();
            w.layers(&mut layers);
            for (name, value) in layers {
                let value = if is_time(unit_of(name)) {
                    value * scale
                } else {
                    value
                };
                run.layers.entry(name).or_default().push(value);
            }
        } else {
            run.untraced_ms.push(ms);
            run.wall_untraced_ms.push(wall_ms);
            match w.universal_ns() {
                Some(ns) => run.universal_ms.push(ns as f64 / 1e6 * scale),
                None => {
                    if let Some(u) = w.sample_universal_ms()? {
                        run.universal_ms.push(u * scale);
                    }
                }
            }
        }
        if i == 0 || mix(args.seed ^ 0xC0FFEE, i).is_multiple_of(w.check_every()) {
            if let Err(e) = w.check() {
                eprintln!("perfbench: op {i} output check failed: {e}");
                run.correct = false;
            }
        }
        i += 1;
    }
    println!(
        "wall clock: op_p50 {:.3} ms over {} untraced ops; calibration kernel median {:.4} ms (reference {REFERENCE_KERNEL_MS} ms)",
        median(&run.wall_untraced_ms),
        run.wall_untraced_ms.len(),
        median(&cal.log)
    );
    if args.trace {
        write_spans(args, &spans);
        report_layers(&run, &cal);
    } else {
        report_end_to_end(&run);
    }
    Ok(run.correct)
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|&&(n, _)| n == name)
        .map_or("", |&(_, unit)| unit)
}

fn is_time(unit: &str) -> bool {
    matches!(unit, "ms" | "us" | "ns")
}

fn write_spans(args: &Args, spans: &Spans) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()));
    match written {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn report_end_to_end(run: &Run) {
    let lat = &run.untraced_ms;
    let tail_ms = match tail(lat) {
        Some((pct, ms)) => {
            println!("op_tail_ms is p{pct:.2} of {} ops, 10 beyond it", lat.len());
            ms
        }
        None => {
            println!(
                "op_tail_ms is the slowest of {} ops (fewer than 11)",
                lat.len()
            );
            lat.iter().copied().fold(0.0, f64::max)
        }
    };
    let completed = (run.attempted - run.failed) as f64;
    let metrics = [
        ("setup_s", "s", median(&run.setup_s)),
        ("op_p50_ms", "ms", median(lat)),
        ("op_tail_ms", "ms", tail_ms),
        (
            "ops_per_s",
            "1/s",
            completed / (run.busy_ms / 1e3).max(1e-9),
        ),
        ("universal_p50_ms", "ms", median(&run.universal_ms)),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
        (
            "ok_frac",
            "ratio",
            completed / (run.attempted.max(1) as f64),
        ),
    ];
    print_result(run, &metrics);
}

fn report_layers(run: &Run, cal: &Calibration) {
    let untraced = median(&run.untraced_ms);
    let overhead = if untraced > 0.0 {
        median(&run.traced_ms) / untraced - 1.0
    } else {
        0.0
    };
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.overhead_frac" => overhead,
                "wall.op_p50_ms" => median(&run.wall_untraced_ms),
                "host.kernel_ms" => median(&cal.log),
                _ => run.layers.get(name).map_or(0.0, |v| median(v)),
            };
            (name, unit, value)
        })
        .collect();
    print_result(run, &metrics);
}

/// Prints each metric on its own line, then the JSON result line.
fn print_result(run: &Run, metrics: &[(&str, &str, f64)]) {
    let mut json = Vec::new();
    for &(name, unit, value) in metrics {
        println!("{name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        json.join(", ")
    );
}

/// `value` as a JSON number (non-finite values become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}
