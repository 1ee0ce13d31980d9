//! The per-layer ledger of one traced run: host seconds per layer, each
//! as a share of traced `run_s`, with the unattributed remainder shown
//! so that a layer nobody measures appears as a gap instead of vanishing.

use crate::stats::share;

/// Host seconds of the span-profiled layers inside traced `run_s`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spans {
    /// `RunReport::write_visibility()` timed from outside: the same scan
    /// report assembly runs inside `World::run`.
    pub visibility_scan: f64,
    /// Span `deliver`: every message dispatch.
    pub deliver: f64,
    /// Span `timer`: every timer dispatch.
    pub timer: f64,
    /// Span `protocol_step` (nested in `deliver`).
    pub protocol_step: f64,
    /// Span `transport` (nested in `deliver`).
    pub transport: f64,
    /// Span `monitor_tap` (nested in `deliver` and `timer`).
    pub monitor_tap: f64,
    /// Span `tap_feed`: the engine streaming lineage to the tap.
    pub tap_feed: f64,
}

/// Layer seconds that partition traced `run_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Traced `run_s`, the base of every share.
    pub run_s: f64,
    /// Disjoint layers as (metric name, host seconds);
    /// `unattributed_s` is what they leave of `run_s`.
    pub lines: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Splits traced `run_s` into disjoint layers. The actor's self time
    /// is `deliver + timer` minus the spans nested inside them
    /// (`protocol_step`, `transport`, and `monitor_tap`, which the actor
    /// records after each dispatch), so no second is counted twice.
    pub fn new(run_s: f64, s: &Spans) -> Ledger {
        let actor_self = s.deliver + s.timer - s.protocol_step - s.transport - s.monitor_tap;
        Ledger {
            run_s,
            lines: vec![
                ("core.visibility_scan_s", s.visibility_scan),
                ("memory.protocol_step_s", s.protocol_step),
                ("core.transport_s", s.transport),
                ("checker.monitor_tap_s", s.monitor_tap),
                ("sim.tap_feed_s", s.tap_feed),
                ("core.actor_self_s", actor_self),
            ],
        }
    }

    /// Seconds of the named layer (0 if unknown).
    pub fn secs(&self, name: &str) -> f64 {
        self.lines
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, secs)| secs)
    }

    /// `run_s` minus every measured layer: the engine loop, channel
    /// planning and the rest of report assembly.
    pub fn unattributed(&self) -> f64 {
        self.run_s - self.lines.iter().map(|(_, secs)| secs).sum::<f64>()
    }

    /// Which group of layers holds the most host time, counting the
    /// checker's `check_s` (outside `run_s`) with the monitor.
    pub fn dominant(&self, check_s: f64) -> Group {
        let scan = self.secs("core.visibility_scan_s");
        let monitor_checker = self.secs("checker.monitor_tap_s") + check_s;
        let engine = self.run_s - scan - self.secs("checker.monitor_tap_s");
        if scan >= engine && scan >= monitor_checker {
            Group::ReportScan
        } else if monitor_checker >= engine {
            Group::MonitorChecker
        } else {
            Group::EngineIsProtocol
        }
    }

    /// Human table: seconds and share of traced `run_s` per layer.
    pub fn render(&self) -> String {
        let mut out = format!(
            "per-layer ledger (base: traced run_s = {:.6} s)\n",
            self.run_s
        );
        let rows = self
            .lines
            .iter()
            .copied()
            .chain(std::iter::once(("unattributed_s", self.unattributed())));
        for (name, secs) in rows {
            out.push_str(&format!(
                "  {name:<26} {secs:>12.6} s  {:>6.1}% of run_s\n",
                100.0 * share(secs, self.run_s)
            ));
        }
        out
    }
}

/// The three owners of host time the workloads are built to separate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The visibility scan of the report layer.
    ReportScan,
    /// Engine, IS-processes, protocol and transport.
    EngineIsProtocol,
    /// Online monitor plus the offline causal checker.
    MonitorChecker,
}

impl Group {
    /// Stable name for output.
    pub fn name(self) -> &'static str {
        match self {
            Group::ReportScan => "report-scan",
            Group::EngineIsProtocol => "engine-is-protocol",
            Group::MonitorChecker => "monitor-checker",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Spans {
        Spans {
            visibility_scan: 2.0,
            deliver: 5.0,
            timer: 1.0,
            protocol_step: 2.0,
            transport: 1.0,
            monitor_tap: 0.5,
            tap_feed: 0.25,
        }
    }

    #[test]
    fn layers_and_gap_sum_to_the_base() {
        let l = Ledger::new(10.0, &spans());
        assert_eq!(l.secs("core.actor_self_s"), 2.5);
        let sum: f64 = l.lines.iter().map(|(_, secs)| secs).sum();
        assert_eq!(sum, 8.25);
        assert_eq!(l.unattributed(), 1.75);
        assert_eq!(sum + l.unattributed(), l.run_s);
    }

    #[test]
    fn nested_spans_are_not_counted_twice() {
        let s = Spans {
            deliver: 4.0,
            protocol_step: 3.0,
            monitor_tap: 1.0,
            ..Spans::default()
        };
        let l = Ledger::new(4.0, &s);
        assert_eq!(l.secs("core.actor_self_s"), 0.0);
        assert_eq!(l.unattributed(), 0.0);
    }

    #[test]
    fn a_missing_layer_shows_as_unattributed() {
        let l = Ledger::new(3.0, &Spans::default());
        assert_eq!(l.unattributed(), 3.0);
        assert!(l.render().contains("unattributed_s"));
        assert!(l.render().contains("100.0% of run_s"));
    }

    #[test]
    fn dominant_group_follows_the_largest_owner() {
        let scan = Spans {
            visibility_scan: 9.0,
            ..Spans::default()
        };
        assert_eq!(Ledger::new(10.0, &scan).dominant(0.5), Group::ReportScan);
        let engine = Spans {
            visibility_scan: 1.0,
            deliver: 8.0,
            ..Spans::default()
        };
        assert_eq!(
            Ledger::new(10.0, &engine).dominant(1.0),
            Group::EngineIsProtocol
        );
        let monitored = Spans {
            visibility_scan: 0.5,
            deliver: 6.0,
            monitor_tap: 4.0,
            ..Spans::default()
        };
        assert_eq!(
            Ledger::new(10.0, &monitored).dominant(6.0),
            Group::MonitorChecker
        );
    }
}
