//! Outside-in spans: the benchmark records one span around each call it
//! makes into a layer. Spans stay in memory and are written out when the
//! run ends; a layer's self time is its span minus its child spans.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Op id: the index of the read or unit in its op list.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. While `enabled` is false, `enter` and
/// `exit` record nothing, so untraced ops pay only a branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub enabled: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Append another thread's spans, keeping parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans recorded since index `from`, as a tracer of their own.
    pub fn since(&self, from: usize) -> Tracer {
        let mut t = Tracer::new(self.epoch, false);
        t.spans = self.spans[from..]
            .iter()
            .cloned()
            .map(|mut s| {
                s.parent = s.parent.and_then(|p| p.checked_sub(from));
                s
            })
            .collect();
        t
    }

    /// Self time (ns) of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Self times of the spans called `name`, in µs.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Whole durations of the spans called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Write every span as tab-separated `id parent op name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only() {
        let mut t = Tracer::new(Instant::now(), true);
        t.spans = vec![
            Span {
                name: "unit",
                op: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "op",
                op: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "op",
                op: 0,
                parent: Some(0),
                start_ns: 50,
                end_ns: 70,
            },
            Span {
                name: "inner",
                op: 0,
                parent: Some(2),
                start_ns: 55,
                end_ns: 60,
            },
        ];
        assert_eq!(t.self_times(), vec![50, 30, 15, 5]);
        let mut other = Tracer::new(Instant::now(), true);
        other.enabled = false;
        assert_eq!(other.enter("x", 1), None);
        other.enabled = true;
        let a = other.enter("a", 1);
        other.time("b", 1, || ());
        other.exit(a);
        t.absorb(other);
        assert_eq!(t.spans[5].parent, Some(4));
    }
}
