//! Property-style round-trip tests for the JSONL export: any `Snapshot`
//! written with `write_jsonl` must parse back line-by-line with
//! `parse_line` into records equal to what was written — spans (with
//! every attribute type, including strings that need escaping),
//! counters, gauges, histogram summaries, and flight-recorder entries.

use std::collections::BTreeMap;

use sca_telemetry::{parse_line, write_jsonl, AttrValue, Histogram, Record, Snapshot, SpanRecord};

/// A tiny deterministic PRNG (splitmix64) so the "random" snapshots are
/// reproducible across runs and platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value that survives the JSON number path exactly: integers are
    /// canonicalized through f64, so stay well under 2^50.
    fn small(&mut self) -> u64 {
        self.next() & ((1 << 50) - 1)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() as usize) % items.len()]
    }
}

/// Strings that exercise every escape class the writer can emit: quotes,
/// backslashes, the named short escapes, raw control characters (forced
/// through `\uXXXX`), and multi-byte UTF-8 that passes through verbatim.
const NASTY: &[&str] = &[
    "plain",
    "with \"quotes\" inside",
    "back\\slash and \\\" both",
    "line\nbreak and\ttab and\rreturn",
    "bell\u{7}, backspace\u{8}, formfeed\u{c}",
    "nul\u{0}byte",
    "control \u{1}\u{1f} chars",
    "unicode: caché überrascht 攻撃 🔑",
    "json-ish: {\"k\": [1, 2]}",
    "",
];

fn attr(rng: &mut Rng) -> AttrValue {
    match rng.next() % 5 {
        // Non-negative integers parse back as UInt, so Int must stay
        // strictly negative to round-trip as itself.
        0 => AttrValue::Int(-((rng.small() as i64) + 1)),
        1 => AttrValue::UInt(rng.small()),
        // A forced fraction keeps the float from canonicalizing to an
        // integer attr on the way back.
        2 => AttrValue::Float(rng.small() as f64 + 0.5),
        3 => AttrValue::Str((*rng.pick(NASTY)).to_string()),
        _ => AttrValue::Bool(rng.next().is_multiple_of(2)),
    }
}

fn random_span(rng: &mut Rng, id: u64) -> SpanRecord {
    let attrs = (0..rng.next() % 4)
        .map(|i| (format!("attr-{i} {}", rng.pick(NASTY)), attr(rng)))
        .collect();
    SpanRecord {
        id,
        parent: if rng.next().is_multiple_of(2) {
            None
        } else {
            Some(id + 1)
        },
        name: format!("span.{} {}", id, rng.pick(NASTY)),
        start_ns: rng.small(),
        duration_ns: rng.small(),
        attrs,
    }
}

fn random_snapshot(rng: &mut Rng, spans: usize) -> Snapshot {
    let spans: Vec<SpanRecord> = (0..spans).map(|i| random_span(rng, i as u64)).collect();
    let mut counters = BTreeMap::new();
    for (i, s) in NASTY.iter().enumerate() {
        counters.insert(format!("counter-{i} {s}"), rng.small());
    }
    let mut histograms = BTreeMap::new();
    for (i, s) in NASTY.iter().enumerate() {
        let mut h = Histogram::new();
        for _ in 0..(rng.next() % 64 + 1) {
            h.record(rng.small());
        }
        histograms.insert(format!("hist-{i} {s}"), h);
    }
    let mut gauges = BTreeMap::new();
    for (i, s) in NASTY.iter().enumerate() {
        gauges.insert(format!("gauge-{i} {s}"), rng.small());
    }
    Snapshot {
        spans,
        counters,
        histograms,
        gauges,
    }
}

/// Write a snapshot, parse every line back, and demand equality with the
/// source — field by field, in the documented order (spans, counters,
/// histogram summaries).
fn assert_round_trips(snap: &Snapshot) {
    let mut buf = Vec::new();
    write_jsonl(snap, &mut buf).expect("write_jsonl");
    let text = String::from_utf8(buf).expect("jsonl is valid UTF-8");
    let records: Vec<Record> = text
        .lines()
        .map(|l| parse_line(l).unwrap_or_else(|e| panic!("unparseable line {l:?}: {e}")))
        .collect();
    assert_eq!(
        records.len(),
        snap.spans.len() + snap.counters.len() + snap.gauges.len() + snap.histograms.len(),
        "one record per span, counter, gauge, and histogram"
    );

    let mut records = records.into_iter();
    for want in &snap.spans {
        match records.next() {
            Some(Record::Span(got)) => assert_eq!(&got, want),
            other => panic!("expected span {want:?}, got {other:?}"),
        }
    }
    for (want_name, want_value) in &snap.counters {
        match records.next() {
            Some(Record::Counter { name, value }) => {
                assert_eq!(&name, want_name);
                assert_eq!(value, *want_value);
            }
            other => panic!("expected counter {want_name:?}, got {other:?}"),
        }
    }
    for (want_name, want_value) in &snap.gauges {
        match records.next() {
            Some(Record::Gauge { name, value }) => {
                assert_eq!(&name, want_name);
                assert_eq!(value, *want_value);
            }
            other => panic!("expected gauge {want_name:?}, got {other:?}"),
        }
    }
    for (want_name, h) in &snap.histograms {
        match records.next() {
            Some(Record::Histogram {
                name,
                count,
                min,
                max,
                mean,
                p50,
                p90,
                p99,
            }) => {
                assert_eq!(&name, want_name);
                assert_eq!(count, h.count());
                assert_eq!(min, h.min());
                assert_eq!(max, h.max());
                assert_eq!(mean, h.mean(), "f64 mean must survive the text form");
                assert_eq!(p50, h.percentile(50.0));
                assert_eq!(p90, h.percentile(90.0));
                assert_eq!(p99, h.percentile(99.0));
            }
            other => panic!("expected histogram {want_name:?}, got {other:?}"),
        }
    }
}

#[test]
fn random_snapshots_round_trip_exactly() {
    let mut rng = Rng(0x5ca6_0a2d);
    for round in 0..32 {
        let snap = random_snapshot(&mut rng, 16);
        assert_round_trips(&snap);
        let _ = round;
    }
}

#[test]
fn every_attr_value_variant_round_trips() {
    for (i, value) in [
        AttrValue::Int(-1),
        AttrValue::Int(-(1 << 49)), // < 2^50 in magnitude
        AttrValue::UInt(0),
        AttrValue::UInt((1 << 50) - 1),
        AttrValue::Float(0.125),
        AttrValue::Float(-1234.75),
        AttrValue::Float(1e-300),
        AttrValue::Str("with \"quotes\" and \\ and \n".into()),
        AttrValue::Bool(true),
        AttrValue::Bool(false),
    ]
    .into_iter()
    .enumerate()
    {
        let snap = Snapshot {
            spans: vec![SpanRecord {
                id: i as u64,
                parent: None,
                name: "attr-case".into(),
                start_ns: 1,
                duration_ns: 2,
                attrs: vec![("k".into(), value)],
            }],
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            gauges: BTreeMap::new(),
        };
        assert_round_trips(&snap);
    }
}

#[test]
fn strings_needing_escaping_round_trip_in_every_position() {
    // Every nasty string as a span name, an attr key, and an attr value
    // at once — one snapshot per string so a failure names its culprit.
    for s in NASTY {
        let snap = Snapshot {
            spans: vec![SpanRecord {
                id: 7,
                parent: Some(3),
                name: (*s).to_string(),
                start_ns: 11,
                duration_ns: 13,
                attrs: vec![((*s).to_string(), AttrValue::Str((*s).to_string()))],
            }],
            counters: BTreeMap::from([((*s).to_string(), 42)]),
            histograms: BTreeMap::new(),
            gauges: BTreeMap::from([((*s).to_string(), 17)]),
        };
        assert_round_trips(&snap);
    }
}

#[test]
fn request_records_round_trip_via_parse_line() {
    use sca_telemetry::{request_json, Outcome, RequestSummary};
    for (i, outcome) in Outcome::ALL.into_iter().enumerate() {
        let want = RequestSummary {
            trace_id: 1000 + i as u64,
            name: "classify".into(),
            outcome,
            verdict: if outcome == Outcome::Ok {
                Some("attack".into())
            } else {
                None
            },
            latency_ns: 123_456 + i as u64,
            stages: vec![
                ("queue_wait_ns".into(), 10),
                ("scan_ns".into(), 123_400),
                ("render_ns".into(), 46 + i as u64),
            ],
        };
        let line = request_json(&want).to_string();
        match parse_line(&line) {
            Ok(Record::Request(got)) => assert_eq!(got, want),
            other => panic!("expected request record, got {other:?}"),
        }
    }
}

#[test]
fn empty_snapshot_writes_nothing_and_parses_trivially() {
    let snap = Snapshot::default();
    let mut buf = Vec::new();
    write_jsonl(&snap, &mut buf).expect("write_jsonl");
    assert!(buf.is_empty(), "an empty snapshot exports zero lines");
}
