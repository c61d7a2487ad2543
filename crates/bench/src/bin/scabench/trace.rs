//! Span trees: self time per span, and the server's slow-request log.
//!
//! A traced server (`--metrics --slow-ms 0 --slow-log <file>`) dumps every
//! work request as a `request` summary followed by the spans recorded
//! under its trace id. Spans opened on another thread for the same request
//! (the scan probes) have no parent in the dump; they are attached to the
//! request's root span, whose thread waits for them.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use sca_telemetry::{parse_line, Record, SpanRecord};

/// Self time of each span: its duration minus the part of its interval
/// its children cover. Returns `(name, self ns)` in input order.
pub fn self_times(spans: &[SpanRecord]) -> Vec<(String, u64)> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let root = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none_or(|p| !index.contains_key(&p)))
        .max_by_key(|(_, s)| s.duration_ns)
        .map(|(i, _)| i);
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .and_then(|p| index.get(&p).copied())
            .or(root.filter(|&r| r != i));
        if let Some(p) = parent {
            children[p].push((s.start_ns, s.start_ns + s.duration_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.duration_ns);
            kids.sort_unstable();
            // Union of the children's intervals, clipped to the parent's.
            let (mut covered, mut reach) = (0, lo);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.name.clone(), s.duration_ns.saturating_sub(covered))
        })
        .collect()
}

/// Self time per span name, summed over one request's span tree.
pub type SelfTimes = BTreeMap<String, u64>;

/// Read a slow-request log into each request's self times, keyed by
/// trace id (empty when the server never wrote one).
pub fn read_slow_log(path: &Path) -> io::Result<BTreeMap<u64, SelfTimes>> {
    match File::open(path) {
        Ok(file) => parse_slow_log(BufReader::new(file)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(BTreeMap::new()),
        Err(e) => Err(e),
    }
}

/// The log is read as a stream: a large-repository phase dumps over a
/// hundred megabytes of spans (one per DTW comparison), but the server
/// writes each request's summary and spans as one block, so only one
/// request's spans are held at a time.
fn parse_slow_log(log: impl BufRead) -> io::Result<BTreeMap<u64, SelfTimes>> {
    let mut out = BTreeMap::new();
    let mut block: Option<(u64, Vec<SpanRecord>)> = None;
    let mut close = |block: Option<(u64, Vec<SpanRecord>)>| {
        if let Some((trace, spans)) = block {
            let totals: &mut SelfTimes = out.entry(trace).or_default();
            for (name, ns) in self_times(&spans) {
                *totals.entry(name).or_default() += ns;
            }
        }
    };
    for line in log.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line).map_err(|e| io::Error::other(format!("slow log: {e}")))? {
            Record::Request(r) => close(block.replace((r.trace_id, Vec::new()))),
            Record::Span(s) => {
                if let Some((_, spans)) = &mut block {
                    spans.push(s);
                }
            }
            _ => {}
        }
    }
    close(block);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            start_ns: start,
            duration_ns: dur,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // request [0,100): build [10,50) holding execute [10,30) and
        // replay [30,45); an orphan scan [60,90) from another thread
        // belongs under the request.
        let spans = vec![
            span(2, Some(3), "execute", 10, 20),
            span(4, Some(3), "replay", 30, 15),
            span(3, Some(1), "build", 10, 40),
            span(9, None, "scan", 60, 30),
            span(1, None, "request", 0, 100),
        ];
        let got: HashMap<String, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(got["execute"], 20);
        assert_eq!(got["replay"], 15);
        assert_eq!(got["build"], 40 - 35);
        assert_eq!(got["scan"], 30);
        assert_eq!(got["request"], 100 - 40 - 30);
        // Self times partition the request's interval.
        assert_eq!(got.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two scan probes on different threads overlap in [70,90).
        let spans = vec![
            span(1, None, "request", 0, 100),
            span(7, None, "scan", 60, 30),
            span(8, None, "scan", 70, 25),
        ];
        let got = self_times(&spans);
        assert_eq!(got[0], ("request".to_string(), 100 - 35));
    }

    #[test]
    fn slow_log_sums_self_times_per_request() {
        let summary = |trace_id| {
            sca_telemetry::request_json(&sca_telemetry::RequestSummary {
                trace_id,
                name: "classify".into(),
                outcome: sca_telemetry::Outcome::Ok,
                verdict: None,
                latency_ns: 1000,
                stages: Vec::new(),
            })
        };
        let line = |s: SpanRecord| sca_telemetry::span_json(&s).to_string();
        // Request 7: serve.request [0,900) with two DTW spans from another
        // thread; request 8 follows in its own block.
        let text = [
            summary(7).to_string(),
            line(span(5, None, "serve.request", 0, 900)),
            line(span(6, None, "dtw", 100, 200)),
            line(span(9, None, "dtw", 400, 100)),
            summary(8).to_string(),
            line(span(11, None, "serve.request", 0, 50)),
        ]
        .join("\n");
        let log = parse_slow_log(text.as_bytes()).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[&7]["serve.request"], 600);
        assert_eq!(log[&7]["dtw"], 300);
        assert_eq!(log[&8]["serve.request"], 50);
    }
}
