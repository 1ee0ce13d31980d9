//! Benchmark of the cmi stack through its public pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pair_long --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each repetition builds every world of the workload from the seed,
//! runs it to quiescence, checks α^T with `causal::check` and exports
//! the report as compact JSON, timing each phase. Repetitions continue
//! for `--seconds`; timings are medians over them. Every repetition's
//! counts and virtual-time figures must equal the first one's, and every
//! run must drain, be causal and (when monitored) keep the monitor clean.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger from span-profiled repetitions interleaved with untraced ones,
//! plus a held-out-seed check that the workload's dominant layer group
//! does not depend on the seed. The last stdout line is the JSON result.

mod ledger;
mod stats;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use cmi_obs::{Json, ToJson};
use cmi_sim::{CalendarQueue, SplitMix64};

use ledger::{Ledger, Spans};
use stats::{fastest_sum, median, quartiles, share, spread};
use workload::{secs, Counts, Phases, Rep, Workload, NAMES};

const USAGE: &str = "usage: cmi-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Repetitions measured at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// `setup_s` samples taken before each repetition, so that they spread
/// over the whole run.
const SETUP_SAMPLES_PER_REP: usize = 2;

/// Set-up samples behind `setup_s` at least, topped up after the last
/// repetition when the run was short.
const MIN_SETUP_SAMPLES: usize = 31;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::named(&value)
                    .ok_or_else(|| bad(&format!("expected one of {}", NAMES.join(", "))))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cmi-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host_facts(&args).to_compact());
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cmi-perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

/// The seed the held-out check runs on, derived from the workload seed
/// and kept below 2^48 so JSON carries it exactly.
fn held_out_seed(seed: u64) -> u64 {
    SplitMix64::seed_from_u64(seed).next_u64() >> 16
}

fn host_facts(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", nproc.to_json()),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("profile", Json::Str(env!("PERFBENCH_PROFILE").into())),
        ("workload", Json::Str(args.workload.name.into())),
        ("params", Json::Str(args.workload.describe())),
        ("seed", Json::Str(args.seed.to_string())),
        (
            "held_out_seed",
            Json::Str(held_out_seed(args.seed).to_string()),
        ),
        ("seconds", args.seconds.to_json()),
        ("trace", args.trace.to_json()),
    ])
}

/// Repetitions of one seed and what they attempted.
struct Measured {
    reps: Vec<(bool, Rep)>,
    reference: Counts,
    attempted: u64,
    failed: u64,
    setup_samples: Vec<f64>,
}

/// Runs one warm-up repetition, then repetitions whose tracing follows
/// `pattern` cyclically until `seconds` have passed. Fails if any
/// repetition's counts differ from the warm-up's.
fn measure(w: &Workload, seed: u64, seconds: f64, pattern: &[bool]) -> Result<Measured, String> {
    let seeds = w.cell_seeds(seed);
    let warm = w.run(w.setup(&seeds, false), false);
    let mut m = Measured {
        reference: warm.counts.clone(),
        attempted: warm.counts.ops,
        failed: warm.failed_ops,
        reps: Vec::new(),
        setup_samples: Vec::new(),
    };
    let start = Instant::now();
    while m.reps.len() < MIN_REPS.max(pattern.len()) || secs(start) < seconds {
        let traced = pattern[m.reps.len() % pattern.len()];
        for _ in 0..SETUP_SAMPLES_PER_REP {
            m.setup_samples.push(w.time_setup(&seeds));
        }
        let rep = w.run(w.setup(&seeds, traced), traced);
        if rep.counts != m.reference {
            return Err(format!(
                "counts of seed {seed} differ between repetitions (traced: {traced}):\n  \
                 first {:?}\n  now   {:?}",
                m.reference, rep.counts
            ));
        }
        m.attempted += rep.counts.ops;
        m.failed += rep.failed_ops;
        m.reps.push((traced, rep));
    }
    while m.setup_samples.len() < MIN_SETUP_SAMPLES {
        m.setup_samples.push(w.time_setup(&seeds));
    }
    Ok(m)
}

/// The repetitions whose tracing is `traced`.
fn reps_of(m: &Measured, traced: bool) -> Vec<&Rep> {
    m.reps
        .iter()
        .filter(|(t, _)| *t == traced)
        .map(|(_, r)| r)
        .collect()
}

/// A timing as reported: `f` with every cell at its fastest repetition,
/// summed over cells.
fn fastest(reps: &[&Rep], f: impl Fn(&Phases) -> f64) -> f64 {
    let rows: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| r.cells.iter().map(&f).collect())
        .collect();
    fastest_sum(&rows)
}

/// One human line over per-repetition totals: median, quartiles, their
/// spread and sample count, next to the reported figure.
fn summary_line(name: &str, unit: &str, reported: f64, xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    format!(
        "  {name:<12} {reported:.6} {unit}   per repetition: median {:.6}, q1 {q1:.6}, \
         q3 {q3:.6}, spread {:.3} of median, n {}",
        median(xs),
        spread(xs),
        xs.len()
    )
}

fn untraced(args: &Args) -> Result<String, String> {
    let w = &args.workload;
    let m = measure(w, args.seed, args.seconds, &[false])?;
    let c = &m.reference;
    let reps = reps_of(&m, false);
    let setup_s = median(&m.setup_samples);
    let run_s = fastest(&reps, |p| p.run_s);
    let check_s = fastest(&reps, Phases::check_s);
    let export_s = fastest(&reps, Phases::export_s);
    let ops_per_s = c.ops as f64 / (setup_s + run_s + check_s + export_s);
    let events_per_s = c.events as f64 / run_s;

    let per_rep = |f: fn(&Phases) -> f64| reps.iter().map(|r| r.total(f)).collect::<Vec<_>>();
    println!(
        "end-to-end over {} untraced repetitions of seed {} (setup_s: median of {} samples, \
         each the fastest set-up of a >= 20 ms batch; other timings: each cell's fastest \
         repetition, summed):",
        reps.len(),
        args.seed,
        m.setup_samples.len()
    );
    println!(
        "{}",
        summary_line("setup_s", "s", setup_s, &m.setup_samples)
    );
    println!(
        "{}",
        summary_line("run_s", "s", run_s, &per_rep(|p| p.run_s))
    );
    println!(
        "{}",
        summary_line("check_s", "s", check_s, &per_rep(Phases::check_s))
    );
    println!(
        "{}",
        summary_line("export_s", "s", export_s, &per_rep(Phases::export_s))
    );
    // Printed but not in the result: with fixed link delays and no causal
    // waits, these virtual latencies are the same on every seed of
    // `pair_long` and `hub64_cells`, so they gate the model, not the host.
    println!(
        "  vis_p50_ms {} ms, vis_p99_ms {} ms (virtual; equal in every repetition)",
        c.vis_p50_ns as f64 / 1e6,
        c.vis_p99_ns as f64 / 1e6
    );
    println!(
        "  failed_ops_frac {} (failed {} of {} attempted ops)",
        share(m.failed as f64, m.attempted as f64),
        m.failed,
        m.attempted
    );
    let metrics = [
        ("setup_s", setup_s, "s"),
        ("run_s", run_s, "s"),
        ("check_s", check_s, "s"),
        ("export_s", export_s, "s"),
        ("ops_per_s", ops_per_s, "ops/s"),
        ("events_per_s", events_per_s, "events/s"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        (
            "msgs_per_write",
            share(c.messages as f64, c.writes as f64),
            "msgs/write",
        ),
    ];
    Ok(result_line(m.attempted, m.failed, &metrics))
}

/// Every phase and span at its own fastest: per cell, the fastest
/// repetition of that phase, summed over cells (see [`fastest`]).
fn fastest_phases(reps: &[&Rep]) -> Phases {
    let f = |g: fn(&Phases) -> f64| fastest(reps, g);
    Phases {
        run_s: f(|p| p.run_s),
        history_s: f(|p| p.history_s),
        causal_s: f(|p| p.causal_s),
        to_json_s: f(|p| p.to_json_s),
        serialize_s: f(|p| p.serialize_s),
        spans: Spans {
            visibility_scan: f(|p| p.spans.visibility_scan),
            deliver: f(|p| p.spans.deliver),
            timer: f(|p| p.spans.timer),
            protocol_step: f(|p| p.spans.protocol_step),
            transport: f(|p| p.spans.transport),
            monitor_tap: f(|p| p.spans.monitor_tap),
            tap_feed: f(|p| p.spans.tap_feed),
        },
    }
}

fn traced(args: &Args) -> Result<String, String> {
    let w = &args.workload;
    let mut m = measure(w, args.seed, args.seconds, &[true, false])?;
    let c = m.reference.clone();
    let traced_reps = reps_of(&m, true);
    let best = fastest_phases(&traced_reps);
    let ledger = Ledger::new(best.run_s, &best.spans);
    println!(
        "traced: each phase and span at its fastest of {} span-profiled repetitions of seed {} \
         ({} untraced repetitions interleaved)",
        traced_reps.len(),
        args.seed,
        m.reps.len() - traced_reps.len()
    );
    print!("{}", ledger.render());
    println!(
        "  outside run_s: check_s {:.6} s, export_s {:.6} s",
        best.check_s(),
        best.export_s()
    );

    // Held-out seed: the dominant owner of host time must not move.
    let seeds = w.cell_seeds(held_out_seed(args.seed));
    let held = w.run(w.setup(&seeds, true), true);
    m.attempted += held.counts.ops;
    m.failed += held.failed_ops;
    let held_best = fastest_phases(&[&held]);
    let main_group = ledger.dominant(best.check_s());
    let held_group = Ledger::new(held_best.run_s, &held_best.spans).dominant(held_best.check_s());
    println!(
        "dominant layer group: {} on seed {}, {} on held-out seed {} (expected {})",
        main_group.name(),
        args.seed,
        held_group.name(),
        held_out_seed(args.seed),
        w.dominant.name()
    );
    if main_group != w.dominant || held_group != w.dominant {
        return Err(format!(
            "dominant layer group of {} is {} (seed {}) and {} (held-out seed), expected {}",
            w.name,
            main_group.name(),
            args.seed,
            held_group.name(),
            w.dominant.name()
        ));
    }

    let untraced_run_s = fastest(&reps_of(&m, false), |p| p.run_s);
    let frames = c.frames_o1 + c.frames_clocked;
    let json_bytes = reps_of(&m, false)[0].json_bytes;
    let mut metrics = vec![
        ("core.visibility_scan_s", best.spans.visibility_scan, "s"),
        ("types.global_history_s", best.history_s, "s"),
        (
            "checker.fastpath_ns_per_op",
            best.causal_s * 1e9 / c.ops as f64,
            "ns/op",
        ),
        ("checker.monitor_tap_s", best.spans.monitor_tap, "s"),
        (
            "checker.monitor_peak_frontier",
            c.monitor_peak_frontier as f64,
            "count",
        ),
        ("memory.protocol_step_s", best.spans.protocol_step, "s"),
        ("memory.updates_applied", c.updates_applied as f64, "count"),
        (
            "memory.causal_wait_stalls",
            c.causal_wait_stalls as f64,
            "count",
        ),
        ("core.transport_s", best.spans.transport, "s"),
        ("core.retransmits", c.retransmits as f64, "count"),
        ("core.acks", c.acks as f64, "count"),
        ("core.dedup_drops", c.dedup_drops as f64, "count"),
        (
            "core.frame_yield",
            share(c.propagate_in as f64, frames as f64),
            "pairs/frame",
        ),
        ("core.actor_self_s", ledger.secs("core.actor_self_s"), "s"),
        ("core.frames_o1", c.frames_o1 as f64, "count"),
        ("core.frames_clocked", c.frames_clocked as f64, "count"),
        (
            "core.meta_bytes_per_frame",
            share(c.meta_bytes as f64, frames as f64),
            "B/frame",
        ),
        ("core.build_s", median(&m.setup_samples), "s"),
        ("sim.events", c.events as f64, "count"),
        ("sim.timer_fires", c.timer_fires as f64, "count"),
        ("sim.msgs", c.messages as f64, "count"),
        ("sim.crossings", c.crossings as f64, "count"),
        ("sim.queue_depth_max", c.queue_depth_max as f64, "count"),
        (
            "sim.sched_ns_per_op",
            sched_ns_per_op(c.queue_depth_max as usize, args.seed),
            "ns/op",
        ),
        ("sim.tap_feed_s", best.spans.tap_feed, "s"),
        ("obs.to_json_s", best.to_json_s, "s"),
        ("obs.serialize_s", best.serialize_s, "s"),
        ("obs.json_bytes", json_bytes as f64, "B"),
        ("unattributed_s", ledger.unattributed(), "s"),
        (
            "trace_overhead_frac",
            share(best.run_s, untraced_run_s) - 1.0,
            "frac",
        ),
        ("ledger.run_s", best.run_s, "s"),
    ];
    let shares = [
        ("share.visibility_scan", "core.visibility_scan_s"),
        ("share.protocol_step", "memory.protocol_step_s"),
        ("share.transport", "core.transport_s"),
        ("share.monitor_tap", "checker.monitor_tap_s"),
        ("share.tap_feed", "sim.tap_feed_s"),
        ("share.actor_self", "core.actor_self_s"),
    ];
    for (name, layer) in shares {
        metrics.push((name, share(ledger.secs(layer), best.run_s), "frac/run_s"));
    }
    metrics.push((
        "share.unattributed",
        share(ledger.unattributed(), best.run_s),
        "frac/run_s",
    ));
    Ok(result_line(m.attempted, m.failed, &metrics))
}

/// Host nanoseconds per push + pop on the engine's public calendar
/// queue held at `depth` pending events, with delays up to 20 ms (the
/// workloads' link and think-time range). Median of five timed batches.
fn sched_ns_per_op(depth: usize, seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut q = CalendarQueue::new();
    let mut seq = 0u64;
    for _ in 0..depth.max(1) {
        q.push(rng.next_u64() % 20_000_000, seq, 0, seq);
        seq += 1;
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..OPS {
                let (at, _, v) = q.pop().expect("the queue holds `depth` events");
                q.push(at + rng.next_u64() % 20_000_000, seq, 0, black_box(v));
                seq += 1;
            }
            secs(t) * 1e9 / OPS as f64
        })
        .collect();
    median(&batches)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The result: the last stdout line.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let metrics = Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", value.to_json()), ("unit", Json::Str(unit.into()))]),
        )
    }));
    Json::obj([
        ("correct", (failed == 0).to_json()),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("metrics", metrics),
    ])
    .to_compact()
}
