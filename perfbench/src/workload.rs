//! The workloads and one timed repetition of a workload through the
//! public pipeline: build → `World::run` → `global_history` +
//! `causal::check` → `to_json().to_compact()`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use cmi_checker::causal;
use cmi_core::{
    InterconnectBuilder, IsTopology, LinkSpec, ReliableConfig, RunReport, TopologySpec, World,
};
use cmi_memory::{ProtocolKind, VarPattern, WorkloadSpec};
use cmi_obs::{SpanId, SpanStats, TelemetryConfig};
use cmi_sim::{ChannelSpec, FaultSpec, SplitMix64};
use cmi_types::{History, ProcId, SimTime, Value, VarId};

use crate::ledger::{Group, Spans};
use crate::stats::{rank_quantile, CellVerdict};

/// Least host time one `setup_s` sample spends setting up.
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["pair_long", "hub64_cells", "lossy_reads_mon"];

/// Which world a workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// 2 × 4 Ahamad processes over one raw 10 ms link.
    Pair,
    /// `hub_of_hubs:64` (fan-out 8) of 2-process Ahamad systems, shared
    /// IS-processes, reliable 2 ms links.
    Hub64,
    /// 2 × 4 Ahamad over a lossy, duplicating, corrupting 10 ms link with
    /// reliable transport (RTO 40 ms) and the online monitor on.
    LossyPair,
}

/// One benchmark workload: a world shape, the op mix every application
/// process runs, and how many independently seeded runs (cells) make up
/// one repetition.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    shape: Shape,
    cells: usize,
    ops: WorkloadSpec,
    /// The layer group that must own the most host time, on any seed.
    pub dominant: Group,
}

impl Workload {
    /// The workload called `name`, if any.
    pub fn named(name: &str) -> Option<Workload> {
        let w = match name {
            // One long run: the O(writes × processes) visibility scan of
            // the report layer owns run_s and export_s here.
            "pair_long" => Workload {
                name: "pair_long",
                shape: Shape::Pair,
                cells: 1,
                ops: WorkloadSpec::small()
                    .with_ops(1500)
                    .with_vars(16)
                    .with_write_fraction(0.5),
                dominant: Group::ReportScan,
            },
            // Many short 64-system runs, ~250 messages per write: the
            // engine, IS-propagate, protocol and transport own host time.
            "hub64_cells" => Workload {
                name: "hub64_cells",
                shape: Shape::Hub64,
                cells: 9,
                ops: WorkloadSpec::small()
                    .with_ops(2)
                    .with_vars(8)
                    .with_write_fraction(0.8)
                    .with_mean_gap(Duration::from_millis(2)),
                dominant: Group::EngineIsProtocol,
            },
            // Many short read-heavy runs over a faulty link with the
            // monitor tapping the run: monitor and checker own host time.
            "lossy_reads_mon" => Workload {
                name: "lossy_reads_mon",
                shape: Shape::LossyPair,
                cells: 48,
                ops: WorkloadSpec::small()
                    .with_ops(150)
                    .with_vars(8)
                    .with_write_fraction(0.2)
                    .with_pattern(VarPattern::Zipf),
                dominant: Group::MonitorChecker,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The generated inputs of one repetition: a world seed per cell,
    /// drawn from the workload seed.
    pub fn cell_seeds(&self, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..self.cells).map(|_| rng.next_u64()).collect()
    }

    /// The workload's parameters, for the host-facts record.
    pub fn describe(&self) -> String {
        let world = match self.shape {
            Shape::Pair => "pair 2x4 ahamad, raw 10ms link",
            Shape::Hub64 => "hub_of_hubs:64:8 2-proc ahamad, shared isp, reliable 2ms links",
            Shape::LossyPair => {
                "pair 2x4 ahamad, 10ms link drop 0.20 dup 0.05 corrupt 0.05, reliable rto 40ms, monitor"
            }
        };
        format!(
            "{world}; cells {}; ops/proc {}; write fraction {}; vars {} {:?}; mean gap {:?}",
            self.cells,
            self.ops.ops_per_proc,
            self.ops.write_fraction,
            self.ops.n_vars,
            self.ops.pattern,
            self.ops.mean_gap
        )
    }

    fn build(&self, seed: u64, traced: bool) -> World {
        let mut b = InterconnectBuilder::new().with_vars(self.ops.n_vars as usize);
        if traced {
            // Telemetry carries the span profiler; a cadence far past the
            // end of any run keeps the timeline to one sample.
            b.enable_telemetry(TelemetryConfig::default().with_every_ms(1 << 30));
        }
        let (topology, procs, link) = match self.shape {
            Shape::Pair => (
                TopologySpec::chain(2),
                4,
                LinkSpec::new(Duration::from_millis(10)),
            ),
            Shape::Hub64 => (
                TopologySpec::hub_of_hubs(64, 8),
                2,
                LinkSpec::new(Duration::from_millis(2)).with_reliability(
                    ReliableConfig::default().with_rto(Duration::from_millis(80)),
                ),
            ),
            Shape::LossyPair => {
                b.enable_monitor();
                let faults = FaultSpec::none()
                    .with_drop(0.20)
                    .with_duplication(0.05)
                    .with_corruption(0.05);
                (
                    TopologySpec::chain(2),
                    4,
                    LinkSpec::new(Duration::from_millis(10))
                        .with_channel(
                            ChannelSpec::fixed(Duration::from_millis(10)).with_faults(faults),
                        )
                        .with_reliability(
                            // Retry without limit and never degrade to
                            // last-writer-wins coalescing, so every write
                            // arrives however many frames the link eats.
                            ReliableConfig::default()
                                .with_rto(Duration::from_millis(40))
                                .with_backoff_cap(2)
                                .with_max_retries(u32::MAX)
                                .with_degraded_after(Duration::from_secs(3600)),
                        ),
                )
            }
        };
        topology.expand_uniform(&mut b, ProtocolKind::Ahamad, procs, &link);
        if self.shape == Shape::Hub64 {
            b = b.with_topology(IsTopology::Shared);
        }
        b.build(seed).expect("every workload shape is a tree")
    }

    /// Builds every world of one repetition.
    pub fn setup(&self, seeds: &[u64], traced: bool) -> Vec<World> {
        seeds.iter().map(|&s| self.build(s, traced)).collect()
    }

    /// One `setup_s` sample: the fastest of as many back-to-back set-ups
    /// as fill [`SETUP_BATCH`]. A single 2-system set-up takes about
    /// 0.1 ms, so a burst of host interference would swamp one timing.
    pub fn time_setup(&self, seeds: &[u64]) -> f64 {
        let mut fastest = f64::INFINITY;
        let batch = Instant::now();
        while fastest.is_infinite() || batch.elapsed() < SETUP_BATCH {
            let t = Instant::now();
            let worlds = black_box(self.setup(seeds, false));
            fastest = fastest.min(secs(t));
            drop(worlds);
        }
        fastest
    }

    /// Runs, checks and exports every world of one repetition.
    pub fn run(&self, worlds: Vec<World>, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let mut latencies = Vec::new();
        for mut world in worlds {
            rep.cell(&mut world, &self.ops, traced, &mut latencies);
        }
        latencies.sort_unstable();
        rep.counts.vis_p50_ns = rank_quantile(&latencies, 0.50);
        rep.counts.vis_p99_ns = rank_quantile(&latencies, 0.99);
        rep
    }
}

/// Virtual quantities and counts of one repetition. For a given seed they
/// must repeat exactly, traced or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub writes: u64,
    pub messages: u64,
    pub events: u64,
    pub timer_fires: u64,
    pub crossings: u64,
    pub queue_depth_max: u64,
    pub updates_applied: u64,
    pub causal_wait_stalls: u64,
    pub retransmits: u64,
    pub acks: u64,
    pub dedup_drops: u64,
    pub propagate_in: u64,
    pub frames_o1: u64,
    pub frames_clocked: u64,
    pub meta_bytes: u64,
    pub monitor_peak_frontier: u64,
    pub vis_p50_ns: u64,
    pub vis_p99_ns: u64,
}

/// Host seconds of one cell's phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `World::run`: simulation to quiescence plus report assembly.
    pub run_s: f64,
    /// `RunReport::global_history()`.
    pub history_s: f64,
    /// `causal::check` on α^T.
    pub causal_s: f64,
    /// `RunReport::to_json()`.
    pub to_json_s: f64,
    /// `Json::to_compact()`.
    pub serialize_s: f64,
    /// Span totals inside `run_s`; zero unless traced.
    pub spans: Spans,
}

impl Phases {
    /// `global_history()` plus `causal::check`.
    pub fn check_s(&self) -> f64 {
        self.history_s + self.causal_s
    }

    /// `to_json()` plus `to_compact()`.
    pub fn export_s(&self) -> f64 {
        self.to_json_s + self.serialize_s
    }
}

/// Host seconds and outcomes of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// One entry per cell, in cell order.
    pub cells: Vec<Phases>,
    /// Bytes of compact JSON exported, all cells.
    pub json_bytes: u64,
    pub counts: Counts,
    pub failed_ops: u64,
}

impl Rep {
    /// `f` summed over the repetition's cells.
    pub fn total(&self, f: impl Fn(&Phases) -> f64) -> f64 {
        self.cells.iter().map(f).sum()
    }

    fn cell(&mut self, world: &mut World, ops: &WorkloadSpec, traced: bool, lat: &mut Vec<u64>) {
        let procs: Vec<ProcId> = world
            .systems()
            .iter()
            .flat_map(|s| s.app_procs.iter().chain(&s.isp_procs))
            .copied()
            .collect();
        let mut p = Phases::default();

        let t = Instant::now();
        let report = world.run(ops);
        p.run_s = secs(t);
        if traced {
            // Straight after the run, so the replica logs are as warm as
            // they were for the scan inside report assembly.
            let t = Instant::now();
            black_box(report.write_visibility());
            p.spans.visibility_scan = secs(t);
            if let Some(s) = report.telemetry().and_then(|t| t.spans()) {
                add_spans(&mut p.spans, s, report.monitor().is_some());
            }
        }

        let t = Instant::now();
        let history = report.global_history();
        p.history_s = secs(t);
        let t = Instant::now();
        let verdict = causal::check(&history);
        p.causal_s = secs(t);

        let t = Instant::now();
        let json = report.to_json();
        p.to_json_s = secs(t);
        let t = Instant::now();
        let text = black_box(json.to_compact());
        p.serialize_s = secs(t);
        self.json_bytes += text.len() as u64;

        self.cells.push(p);

        let invisible_writes = visibility(&report, &history, &procs, lat);
        let monitor = report.monitor();
        let c = &mut self.counts;
        c.ops += history.len() as u64;
        c.writes += history.writes().len() as u64;
        let m = report.metrics();
        c.messages += m.counter("engine.messages_sent");
        c.events += m.counter("engine.events_dispatched");
        c.timer_fires += m.counter("engine.timer_fires");
        c.crossings += m.counter("engine.crossings");
        let depth = m.gauge("engine.queue_depth_max").unwrap_or(0.0) as u64;
        c.queue_depth_max = c.queue_depth_max.max(depth);
        c.updates_applied += m.counter("protocol.updates_applied");
        c.causal_wait_stalls += m.counter("protocol.causal_wait_stalls");
        c.retransmits += m.counter("isp.retransmits");
        c.acks += m.counter("isp.acks");
        c.dedup_drops += m.counter("isp.dedup_drops");
        c.propagate_in += m.counter("isp.propagate_in");
        c.frames_o1 += m.counter("isp.frames_o1");
        c.frames_clocked += m.counter("isp.frames_clocked");
        c.meta_bytes += m.counter("isp.meta_bytes_o1") + m.counter("isp.meta_bytes_clocked");
        if let Some(mon) = monitor {
            c.monitor_peak_frontier = c.monitor_peak_frontier.max(mon.peak_frontier);
        }
        self.failed_ops += CellVerdict {
            ops: history.len() as u64,
            quiescent: report.outcome().is_quiescent(),
            causal: verdict.is_causal(),
            monitor_clean: monitor.is_none_or(|m| m.is_clean()),
            invisible_writes,
        }
        .failed_ops();
    }
}

/// Appends the visibility latency of every (application write, MCS
/// process) pair to `lat` and returns how many writes some process never
/// applied. Independent of the report's own scan: one hash lookup per
/// replica update.
fn visibility(report: &RunReport, history: &History, procs: &[ProcId], lat: &mut Vec<u64>) -> u64 {
    // (issued at, processes that applied it, last process counted)
    let mut writes: HashMap<(VarId, Value), (SimTime, usize, usize)> = history
        .writes()
        .into_iter()
        .map(|id| {
            let op = history.op(id);
            let val = op.written_value().expect("writes() returns writes");
            ((op.var, val), (op.at, 0, usize::MAX))
        })
        .collect();
    for (i, &p) in procs.iter().enumerate() {
        for u in report.updates_of(p) {
            if let Some((at, seen, last)) = writes.get_mut(&(u.var, u.val)) {
                if *last != i {
                    *last = i;
                    *seen += 1;
                    lat.push(u.at.saturating_since(*at).as_nanos() as u64);
                }
            }
        }
    }
    writes
        .values()
        .filter(|(_, seen, _)| *seen < procs.len())
        .count() as u64
}

/// Folds one run's span totals into `acc`. Span `monitor_tap` is
/// recorded whenever an actor has new ops to feed, monitor or not; with
/// no monitor installed it times an empty loop, so it stays in the
/// actor's self time instead of being charged to the checker.
fn add_spans(acc: &mut Spans, s: &SpanStats, monitored: bool) {
    let sec = |id| s.total_ns(id) as f64 / 1e9;
    acc.deliver += sec(SpanId::Deliver);
    acc.timer += sec(SpanId::Timer);
    acc.protocol_step += sec(SpanId::ProtocolStep);
    acc.transport += sec(SpanId::Transport);
    if monitored {
        acc.monitor_tap += sec(SpanId::MonitorTap);
    }
    acc.tap_feed += sec(SpanId::TapFeed);
}

/// Seconds since `t`, as measured.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
