//! The span recorder: one span per call into a layer, kept in a pre-sized
//! `Vec` and written out when the run ends. Switched off it reads no
//! clock, so the timed phase pays one branch per would-be span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a root span, and the handle `enter` returns when off.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or [`NONE`].
    pub parent: u32,
    /// Spans of one op share its id.
    pub op_id: u32,
    /// Multiply a duration by this to get it at the reference pace (see
    /// pace.rs); one value per op.
    pub scale: f64,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
    op_first: usize,
}

impl Recorder {
    pub fn off() -> Self {
        Recorder {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
            op_first: 0,
        }
    }

    /// A recording recorder with room for `capacity` spans, all timed
    /// from `epoch` (shared by the clients of one pass).
    pub fn on(capacity: usize, epoch: Instant) -> Self {
        Recorder {
            on: true,
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op_id: 0,
            op_first: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts an op: closes whatever a panicking op left open.
    pub fn begin_op(&mut self, op_id: u32) {
        self.open.clear();
        self.op_id = op_id;
        self.op_first = self.spans.len();
    }

    /// Ends an op: its spans take the pace it ran at.
    pub fn end_op(&mut self, scale: f64) {
        for span in &mut self.spans[self.op_first..] {
            span.scale = scale;
        }
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NONE;
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(index);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id: self.op_id,
            scale: 1.0,
        });
        index
    }

    pub fn exit(&mut self, handle: u32) {
        if handle == NONE {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[handle as usize].end_ns = now;
        self.open.pop();
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: self time (duration minus the part direct children
/// cover) and total duration, both at the reference pace; total duration
/// by the raw clock, for comparing with a time the product measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    pub self_ns: f64,
    pub total_ns: f64,
    pub raw_total_ns: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub by_name: BTreeMap<&'static str, NameTotal>,
    /// Summed duration of root spans: the traced time of the ops.
    pub root_ns: f64,
}

impl Totals {
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = self.by_name.entry(s.name).or_default();
            t.self_ns += dur.saturating_sub(*covered) as f64 * s.scale;
            t.total_ns += dur as f64 * s.scale;
            t.raw_total_ns += dur;
            if s.parent == NONE {
                self.root_ns += dur as f64 * s.scale;
            }
        }
    }

    pub fn of(&self, name: &str) -> NameTotal {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// The trace file: one JSON array per client.
pub fn to_json(clients: &[Vec<Span>]) -> String {
    let mut out = String::from("[");
    for (c, spans) in clients.iter().enumerate() {
        out.push_str(if c == 0 { "\n[" } else { ",\n[" });
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{},\"scale\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.op_id,
                s.scale
            );
        }
        out.push_str("\n]");
    }
    out.push_str("\n]\n");
    out
}
