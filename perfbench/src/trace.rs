//! The benchmark's own span recorder for the traced replay.
//!
//! Each public call the replay makes into a layer gets a span: request
//! id, layer, parent span, start, end. Spans stay in memory and are
//! written out once, at the end of the run. A layer's self time is its
//! span time minus the time of its child spans.
//!
//! The recorder also keeps the replay's *deterministic counts* (states
//! explored per screen, unfolding vertices per model, …) keyed by the
//! structure or request they belong to: one replayed twice, by another
//! request or by the repeat of the run's first round, must report
//! identical counts, or the run fails.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
pub struct Span {
    pub request: u32,
    pub layer: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
    totals: BTreeMap<&'static str, f64>,
    pins: BTreeMap<String, u64>,
    mismatches: Vec<String>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            totals: BTreeMap::new(),
            pins: BTreeMap::new(),
            mismatches: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Later spans belong to request `id`.
    pub fn begin_request(&mut self, id: u32) {
        self.request = id;
    }

    pub fn open(&mut self, layer: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            layer,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        assert_eq!(self.stack.pop(), Some(id), "spans close in LIFO order");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(layer);
        let r = f();
        self.close(id);
        r
    }

    /// Adds `v` to the run total `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.totals.entry(name).or_insert(0.0) += v;
    }

    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Records a deterministic count of one structure or request; a
    /// second record of the same key must carry the same value.
    pub fn pin(&mut self, key: String, value: u64) {
        match self.pins.get(&key) {
            Some(&old) if old != value => {
                self.mismatches.push(format!("{key}: {old} then {value}"))
            }
            Some(_) => {}
            None => {
                self.pins.insert(key, value);
            }
        }
    }

    /// Records every count `other` pinned, and its mismatches, here.
    pub fn repin(&mut self, other: &Tracer) {
        self.mismatches.extend(other.mismatches.iter().cloned());
        for (k, &v) in &other.pins {
            self.pin(k.clone(), v);
        }
    }

    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Summed span time of `layer`, children included, in ms.
    pub fn total_ms(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Summed self time per layer, in ms.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"request\": {}, \"layer\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.request, s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What recording one span costs, in ns: `n` open/close pairs, nested
/// one deep under a parent as in the replay, on an empty body.
pub fn span_cost_ns(n: usize) -> f64 {
    let mut t = Tracer::new();
    let t0 = Instant::now();
    let root = t.open("calibrate");
    for _ in 0..n {
        let id = t.open("calibrate.child");
        t.close(std::hint::black_box(id));
    }
    t.close(root);
    t0.elapsed().as_nanos() as f64 / (n + 1) as f64
}
