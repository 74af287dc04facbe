//! The harness's own spans: one per call into a program layer, recorded
//! from outside. Spans stay in memory and are written once, as a Chrome
//! trace, when the traced child exits.

use serde_json::Value;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span under `parent`; its index parents further spans.
    pub fn begin(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded while panicking");
        spans.push(Span {
            name,
            parent,
            start_us: now,
            end_us: now,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&self, id: usize) -> f64 {
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded while panicking");
        spans[id].end_us = now;
        (now - spans[id].start_us) / 1e6
    }

    /// Times `f` as a span under `parent`; returns its result and its
    /// duration in seconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent);
        let r = f();
        (r, self.end(id))
    }

    /// Duration minus the part covered by direct children, per span name.
    pub fn self_time_ms(&self) -> Vec<(&'static str, f64)> {
        let spans = self.spans.lock().expect("recorder lock");
        let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += t / 1e3,
                None => by_name.push((s.name, t / 1e3)),
            }
        }
        by_name
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events).
    pub fn chrome_trace(&self) -> Value {
        let spans = self.spans.lock().expect("recorder lock");
        let num = |x: f64| Value::Num(x);
        Value::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("ph".into(), Value::Str("X".into())),
                        ("pid".into(), num(1.0)),
                        ("tid".into(), num(1.0)),
                        ("ts".into(), num(s.start_us)),
                        ("dur".into(), num(s.end_us - s.start_us)),
                        (
                            "args".into(),
                            Value::Obj(vec![
                                ("id".into(), num(i as f64)),
                                (
                                    "parent".into(),
                                    s.parent.map_or(Value::Null, |p| num(p as f64)),
                                ),
                            ]),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let r = Recorder::new();
        let outer = r.begin("outer", None);
        r.end(outer);
        {
            let mut spans = r.spans.lock().unwrap();
            spans[outer].start_us = 0.0;
            spans[outer].end_us = 10_000.0;
            spans.push(Span {
                name: "inner",
                parent: Some(outer),
                start_us: 1_000.0,
                end_us: 4_000.0,
            });
        }
        assert_eq!(r.self_time_ms(), vec![("outer", 7.0), ("inner", 3.0)]);
        let Value::Arr(events) = r.chrome_trace() else {
            panic!("trace is an array")
        };
        assert_eq!(events.len(), 2);
    }
}
