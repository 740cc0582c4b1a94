//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `(name, start, end, parent, episode)`; spans nest by call
//! order, live in memory for the whole run and are written out once at
//! exit. A layer's *self time* is its span's duration minus the time its
//! child spans cover. Spans inside the program are a later change
//! (ROADMAP item 5): these are recorded from outside, at public calls.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The episode seed the span belongs to (spans of one episode share it).
    pub episode: u64,
}

/// Collects spans; nesting follows the open-span stack.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    episode: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            episode: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag the spans recorded from here on with an episode id.
    pub fn set_episode(&mut self, episode: u64) {
        self.episode = episode;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// the recorder it is handed become children.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            episode: self.episode,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Run `f` inside a span named `name` and return the span's seconds,
    /// so a replay's reported cost and its span read one clock.
    pub fn time(&mut self, name: &'static str, f: impl FnOnce()) -> f64 {
        let id = self.spans.len();
        self.scope(name, |_| f());
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Self time of every span called `name`: duration minus the
    /// duration of its direct children, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut ns = 0i128;
        for s in &self.spans {
            if s.name == name {
                ns += i128::from(s.end_ns - s.start_ns);
            }
            if let Some(p) = s.parent {
                if self.spans[p].name == name {
                    ns -= i128::from(s.end_ns - s.start_ns);
                }
            }
        }
        ns as f64 / 1e9
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"episode\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.episode
            );
        }
        out.push(']');
        out
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            episode: self.episode,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut r = Recorder::new();
        r.push_raw("episode", 0, 1_000, None);
        r.push_raw("run", 100, 900, Some(0));
        r.push_raw("analyze", 500, 800, Some(1));
        r.push_raw("stage", 500, 600, Some(2));
        r.push_raw("stage", 600, 780, Some(2));
        assert_eq!(r.total_s("episode"), 1_000e-9);
        assert_eq!(r.self_s("episode"), 200e-9);
        // Grandchildren are not subtracted twice.
        assert_eq!(r.self_s("run"), 500e-9);
        assert_eq!(r.self_s("analyze"), 20e-9);
        assert_eq!(r.total_s("stage"), 280e-9);
        assert_eq!(r.self_s("stage"), 280e-9);
        assert_eq!(r.self_s("absent"), 0.0);
    }

    #[test]
    fn scopes_nest_by_call_order_and_carry_the_episode() {
        let mut r = Recorder::new();
        r.set_episode(7);
        r.scope("outer", |r| {
            r.scope("inner", |_| {});
            r.scope("inner", |_| {});
        });
        r.scope("sibling", |_| {});
        let parents: Vec<Option<usize>> = r.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None]);
        assert!(r
            .spans
            .iter()
            .all(|s| s.episode == 7 && s.end_ns >= s.start_ns));
        assert!(r.total_s("outer") >= r.total_s("inner"));
        let json = r.to_json();
        assert_eq!(json.matches("\"name\": \"inner\"").count(), 2);
        assert!(json.starts_with('[') && json.ends_with(']'));
    }
}
