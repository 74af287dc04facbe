//! Exporter: Chrome trace-event JSON (loadable in Perfetto / `chrome://
//! tracing`).

use crate::{thread_names, Event, Phase};
use serde::Value;

/// Build a Chrome trace-event document from a drained event log. Emits
/// process/thread-name metadata, `B`/`E`/`i` events per span phase, and
/// flow arrows (`s`/`f`) linking every span that carries the same
/// `req` argument — so a request can be followed from admission through
/// batching to its worker in Perfetto.
pub fn chrome_trace(events: &[Event]) -> Value {
    let mut out: Vec<Value> = Vec::with_capacity(events.len() + 16);
    let meta = |name: &str, tid: Option<u64>, value: &str| {
        let mut fields = vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::Num(1.0)),
            (
                "args".to_string(),
                Value::Obj(vec![("name".to_string(), Value::Str(value.to_string()))]),
            ),
        ];
        if let Some(tid) = tid {
            fields.push(("tid".to_string(), Value::Num(tid as f64)));
        }
        Value::Obj(fields)
    };
    out.push(meta("process_name", None, "orion"));
    for (tid, name) in thread_names() {
        out.push(meta("thread_name", Some(tid), &name));
    }

    let mut seen_req: Vec<u64> = Vec::new();
    for e in events {
        let ts_us = e.t_ns as f64 / 1e3;
        let ph = match e.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        };
        let mut fields = vec![
            ("name".to_string(), Value::Str(e.kind.to_string())),
            ("cat".to_string(), Value::Str("orion".to_string())),
            ("ph".to_string(), Value::Str(ph.to_string())),
            ("ts".to_string(), Value::Num(ts_us)),
            ("pid".to_string(), Value::Num(1.0)),
            ("tid".to_string(), Value::Num(e.tid as f64)),
        ];
        if e.phase == Phase::Instant {
            fields.push(("s".to_string(), Value::Str("t".to_string())));
        }
        if e.phase != Phase::End {
            fields.push((
                "args".to_string(),
                Value::Obj(
                    e.args
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Num(v as f64)))
                        .collect(),
                ),
            ));
        }
        out.push(Value::Obj(fields));

        // Flow arrows: the first span beginning with a given request id
        // starts the flow; every later one is a binding step.
        if e.phase == Phase::Begin {
            if let Some(req) = e.args.get("req") {
                let first = !seen_req.contains(&req);
                if first {
                    seen_req.push(req);
                }
                let mut flow = vec![
                    ("name".to_string(), Value::Str("req".to_string())),
                    ("cat".to_string(), Value::Str("req".to_string())),
                    (
                        "ph".to_string(),
                        Value::Str(if first { "s" } else { "f" }.to_string()),
                    ),
                    ("id".to_string(), Value::Num(req as f64)),
                    ("ts".to_string(), Value::Num(ts_us)),
                    ("pid".to_string(), Value::Num(1.0)),
                    ("tid".to_string(), Value::Num(e.tid as f64)),
                ];
                if !first {
                    flow.push(("bp".to_string(), Value::Str("e".to_string())));
                }
                out.push(Value::Obj(flow));
            }
        }
    }

    Value::Obj(vec![
        ("traceEvents".to_string(), Value::Arr(out)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ])
}

/// [`chrome_trace`] serialized to a JSON string.
pub fn chrome_trace_json(events: &[Event]) -> String {
    serde_json::to_string(&chrome_trace(events)).expect("trace serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Args;

    fn ev(kind: &'static str, phase: Phase, t_ns: u64, tid: u64, req: Option<u64>) -> Event {
        let mut args = Args::default();
        if let Some(r) = req {
            args.push("req", r);
        }
        Event {
            kind,
            phase,
            t_ns,
            tid,
            args,
        }
    }

    #[test]
    fn chrome_trace_round_trips_and_is_well_formed() {
        let events = vec![
            ev("admit", Phase::Begin, 1_000, 0, Some(7)),
            ev("admit", Phase::End, 2_000, 0, None),
            ev("exec", Phase::Begin, 3_000, 1, Some(7)),
            ev("tick", Phase::Instant, 3_500, 1, None),
            ev("exec", Phase::End, 9_000, 1, None),
        ];
        let json = chrome_trace_json(&events);
        let doc = serde_json::parse_value(&json).expect("exported trace must parse");
        let trace = doc.get("traceEvents").expect("traceEvents present");
        let Value::Arr(items) = trace else {
            panic!("traceEvents must be an array");
        };
        assert!(!items.is_empty());
        // Every event has the required Chrome fields.
        for item in items {
            for key in ["ph", "pid"] {
                assert!(item.get(key).is_some(), "missing {key}");
            }
        }
        // One flow start ("s") for req 7 on the first span, one binding
        // step ("f") on the second.
        let phs: Vec<String> = items
            .iter()
            .filter(|i| matches!(i.get("cat"), Some(Value::Str(c)) if c == "req"))
            .map(|i| match i.get("ph") {
                Some(Value::Str(p)) => p.clone(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(phs, vec!["s".to_string(), "f".to_string()]);
    }
}
