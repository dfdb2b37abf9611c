//! Output checks computed apart from the program: a brute-force checker
//! of the hard constraints, an order-free fingerprint of fact sets, a
//! brute-force query evaluator and a replay model of the stream windows.

use std::collections::{BTreeMap, HashMap, HashSet};

use tecore_core::Snapshot;
use tecore_kg::{Dictionary, StreamEvent, TemporalFact, UtkGraph};

/// Predicates whose facts must not overlap in time for one subject
/// unless their objects agree: `spouse` and `playsFor` (different
/// objects ⇒ disjoint intervals) and `birthDate` (overlapping intervals
/// ⇒ same object) state the same condition.
const EXCLUSIVE: [&str; 3] = ["spouse", "playsFor", "birthDate"];

/// Collected check failures. A run is correct when none were seen.
#[derive(Debug, Default)]
pub struct Checks {
    failures: u64,
    first: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, what: String) {
        self.failures += 1;
        if self.first.len() < 8 {
            eprintln!("check failed: {what}");
            self.first.push(what);
        }
    }

    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, got: T, want: T, what: &str) {
        if got != want {
            self.fail(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failures == 0
    }
}

/// Every pair of facts in `graph` that breaks a hard constraint, as
/// readable lines.
pub fn constraint_violations(graph: &UtkGraph) -> Vec<String> {
    let dict = graph.dict();
    let exclusive: Vec<_> = EXCLUSIVE.iter().filter_map(|p| dict.lookup(p)).collect();
    let mut groups: HashMap<(u32, u32), Vec<&TemporalFact>> = HashMap::new();
    for (_, fact) in graph.iter() {
        if exclusive.contains(&fact.predicate) {
            groups
                .entry((fact.subject.0, fact.predicate.0))
                .or_default()
                .push(fact);
        }
    }
    let mut out = Vec::new();
    for facts in groups.values_mut() {
        facts.sort_by_key(|f| f.interval.start());
        for (i, a) in facts.iter().enumerate() {
            for b in &facts[i + 1..] {
                if b.interval.start() > a.interval.end() {
                    break;
                }
                if a.object != b.object {
                    out.push(format!(
                        "{} and {} overlap",
                        a.display(dict),
                        b.display(dict)
                    ));
                }
            }
        }
    }
    out
}

/// An order-free fingerprint of a multiset of facts: the count and the
/// wrapping sum of one strong hash per fact, taken over the fact's
/// strings, interval and confidence bits.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FactSet {
    pub count: u64,
    pub hash: u64,
}

impl FactSet {
    pub fn add(&mut self, key: &FactKey) {
        self.count += 1;
        self.hash = self.hash.wrapping_add(key.hash());
    }

    pub fn remove(&mut self, key: &FactKey) {
        self.count -= 1;
        self.hash = self.hash.wrapping_sub(key.hash());
    }

    pub fn add_fact(&mut self, dict: &Dictionary, fact: &TemporalFact) {
        self.count += 1;
        let terms = [fact.subject, fact.predicate, fact.object].map(|t| dict.resolve(t));
        let h = fact_hash(
            terms,
            fact.interval.start().value(),
            fact.interval.end().value(),
            fact.confidence.value(),
        );
        self.hash = self.hash.wrapping_add(h);
    }

    /// The live facts of `graph`.
    pub fn of_graph(graph: &UtkGraph) -> FactSet {
        let mut set = FactSet::default();
        for (_, fact) in graph.iter() {
            set.add_fact(graph.dict(), fact);
        }
        set
    }

    /// What a resolution partitioned: kept facts plus removed facts.
    pub fn of_partition(snapshot: &Snapshot) -> FactSet {
        let kept = &snapshot.consistent;
        let mut set = FactSet::of_graph(kept);
        for removed in &snapshot.removed {
            set.add_fact(kept.dict(), &removed.fact);
        }
        set
    }
}

/// A fact by value, as the benchmark tracks it.
#[derive(Debug, Clone, PartialEq)]
pub struct FactKey {
    pub subject: String,
    pub predicate: String,
    pub object: String,
    pub start: i64,
    pub end: i64,
    pub confidence: f64,
}

impl FactKey {
    pub fn of(dict: &Dictionary, fact: &TemporalFact) -> FactKey {
        FactKey {
            subject: dict.resolve(fact.subject).to_string(),
            predicate: dict.resolve(fact.predicate).to_string(),
            object: dict.resolve(fact.object).to_string(),
            start: fact.interval.start().value(),
            end: fact.interval.end().value(),
            confidence: fact.confidence.value(),
        }
    }

    pub fn of_event(ev: &StreamEvent) -> FactKey {
        FactKey {
            subject: ev.subject.clone(),
            predicate: ev.predicate.clone(),
            object: ev.object.clone(),
            start: ev.interval.start().value(),
            end: ev.interval.end().value(),
            confidence: ev.confidence,
        }
    }

    fn hash(&self) -> u64 {
        fact_hash(
            [&self.subject, &self.predicate, &self.object],
            self.start,
            self.end,
            self.confidence,
        )
    }
}

fn fact_hash(terms: [&str; 3], start: i64, end: i64, confidence: f64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for term in terms {
        for &b in term.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }
    for v in [start as u64, end as u64, confidence.to_bits()] {
        h = mix(h ^ v);
    }
    mix(h)
}

/// The splitmix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the checks every resolved snapshot must pass: no hard
/// constraint broken among the kept facts, and kept ∪ removed equal to
/// the input graph `input` with no fact in both.
pub fn check_snapshot(checks: &mut Checks, snapshot: &Snapshot, input: FactSet, what: &str) {
    let violations = constraint_violations(&snapshot.consistent);
    checks.expect(violations.is_empty(), || {
        format!(
            "{what}: {} constraint violations, first: {}",
            violations.len(),
            violations[0]
        )
    });
    checks.expect_eq(
        FactSet::of_partition(snapshot),
        input,
        &format!("{what}: kept ∪ removed vs input"),
    );
}

/// The time condition of a brute-force query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Time {
    Any,
    /// Validity covers the point.
    At(i64),
    /// Validity shares a point with `[a, b]`.
    Over(i64, i64),
    /// Validity ends with a gap before `[a, b]` starts.
    Before(i64, i64),
    /// Validity lies strictly inside `[a, b]`.
    During(i64, i64),
}

impl Time {
    fn holds(self, start: i64, end: i64) -> bool {
        match self {
            Time::Any => true,
            Time::At(t) => start <= t && t <= end,
            Time::Over(a, b) => start <= b && a <= end,
            Time::Before(a, _) => end + 1 < a,
            Time::During(a, b) => a < start && end < b,
        }
    }
}

/// The wire verb of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Q,
    Count,
    Objects,
    Timeline,
}

/// A query kept as plain values, rendered for the wire and evaluated
/// by brute force.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    pub verb: Verb,
    pub subject: Option<String>,
    pub predicate: Option<String>,
    pub object: Option<String>,
    pub time: Time,
    pub min_confidence: Option<f64>,
    pub limit: Option<usize>,
}

impl Probe {
    pub fn new(verb: Verb) -> Probe {
        Probe {
            verb,
            subject: None,
            predicate: None,
            object: None,
            time: Time::Any,
            min_confidence: None,
            limit: None,
        }
    }

    /// The request line.
    pub fn wire(&self) -> String {
        let mut line = String::from(match self.verb {
            Verb::Q => "Q",
            Verb::Count => "COUNT",
            Verb::Objects => "OBJECTS",
            Verb::Timeline => "TIMELINE",
        });
        for (key, value) in [
            ("s", &self.subject),
            ("p", &self.predicate),
            ("o", &self.object),
        ] {
            if let Some(v) = value {
                line.push_str(&format!(" {key}={v}"));
            }
        }
        match self.time {
            Time::Any => {}
            Time::At(t) => line.push_str(&format!(" at={t}")),
            Time::Over(a, b) => line.push_str(&format!(" over={a}..{b}")),
            Time::Before(a, b) => line.push_str(&format!(" allen=before:{a}..{b}")),
            Time::During(a, b) => line.push_str(&format!(" allen=during:{a}..{b}")),
        }
        if let Some(m) = self.min_confidence {
            line.push_str(&format!(" minconf={m}"));
        }
        if let Some(l) = self.limit {
            line.push_str(&format!(" limit={l}"));
        }
        line
    }

    fn matches(&self, row: &Row<'_>) -> bool {
        self.subject.as_deref().is_none_or(|s| s == row.subject)
            && self.predicate.as_deref().is_none_or(|p| p == row.predicate)
            && self.object.as_deref().is_none_or(|o| o == row.object)
            && self.time.holds(row.start, row.end)
            && self.min_confidence.is_none_or(|m| row.confidence >= m)
    }

    /// The answer size the server must report: `count=` for `COUNT`,
    /// the `n=` line count otherwise.
    pub fn expected(&self, rows: &[Row<'_>]) -> usize {
        let hits = rows.iter().filter(|r| self.matches(r));
        let n = match self.verb {
            Verb::Q | Verb::Count => hits.count(),
            Verb::Objects => hits.map(|r| r.object).collect::<HashSet<_>>().len(),
            Verb::Timeline => hits
                .map(|r| (r.subject, r.predicate, r.object))
                .collect::<HashSet<_>>()
                .len(),
        };
        match self.verb {
            Verb::Count => n,
            _ => n.min(self.limit.unwrap_or(usize::MAX)),
        }
    }
}

/// One fact with its strings borrowed from the graph's dictionary.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    pub subject: &'a str,
    pub predicate: &'a str,
    pub object: &'a str,
    pub start: i64,
    pub end: i64,
    pub confidence: f64,
}

/// The live facts of `graph` as rows.
pub fn rows(graph: &UtkGraph) -> Vec<Row<'_>> {
    let dict = graph.dict();
    graph
        .iter()
        .map(|(_, f)| Row {
            subject: dict.resolve(f.subject),
            predicate: dict.resolve(f.predicate),
            object: dict.resolve(f.object),
            start: f.interval.start().value(),
            end: f.interval.end().value(),
            confidence: f.confidence.value(),
        })
        .collect()
}

/// What the window model expects of one fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelFire {
    pub end: i64,
    pub admitted: usize,
    pub expired: usize,
    /// The stream facts live after the fire: the engine's input graph.
    pub live: FactSet,
}

type EventKey = (i64, String, String, String, i64, i64, u64);

fn event_key(ev: &StreamEvent) -> EventKey {
    (
        ev.time,
        ev.subject.clone(),
        ev.predicate.clone(),
        ev.object.clone(),
        ev.interval.start().value(),
        ev.interval.end().value(),
        ev.confidence.to_bits(),
    )
}

/// Replays events through half-open `[end − width, end)` windows whose
/// boundaries are the multiples of `slide`. The watermark is the newest
/// event time minus `lateness`; a boundary fires once the watermark
/// reaches it, admitting the buffered events before it and expiring
/// live events before its start. An event older than the start of the
/// next unfired window is late and dropped, and only the first copy of
/// a duplicate is kept. Boundaries with nothing to admit or expire do
/// not fire.
#[derive(Debug)]
pub struct WindowModel {
    width: i64,
    slide: i64,
    lateness: i64,
    newest: Option<i64>,
    fired: Option<i64>,
    pending: BTreeMap<i64, Vec<StreamEvent>>,
    live: BTreeMap<i64, Vec<StreamEvent>>,
    live_set: FactSet,
    seen: HashSet<EventKey>,
}

impl WindowModel {
    pub fn new(width: i64, slide: i64, lateness: i64) -> WindowModel {
        WindowModel {
            width,
            slide,
            lateness,
            newest: None,
            fired: None,
            pending: BTreeMap::new(),
            live: BTreeMap::new(),
            live_set: FactSet::default(),
            seen: HashSet::new(),
        }
    }

    /// Offers one event; returns the fires its arrival causes.
    pub fn push(&mut self, ev: &StreamEvent) -> Vec<ModelFire> {
        let mut fires = Vec::new();
        if self
            .fired
            .is_some_and(|f| ev.time < f + self.slide - self.width)
        {
            return fires;
        }
        if !self.seen.insert(event_key(ev)) {
            return fires;
        }
        let newest = self.newest.map_or(ev.time, |n| n.max(ev.time));
        self.newest = Some(newest);
        self.pending.entry(ev.time).or_default().push(ev.clone());
        let watermark = newest - self.lateness;
        loop {
            let end = match self.fired {
                Some(f) => f + self.slide,
                None => match self.pending.keys().next() {
                    Some(&t) => t.div_euclid(self.slide) * self.slide + self.slide,
                    None => break,
                },
            };
            if end > watermark {
                break;
            }
            self.fired = Some(end);
            let start = end - self.width;
            let admit: Vec<i64> = self.pending.range(..end).map(|(&t, _)| t).collect();
            let expire: Vec<i64> = self.live.range(..start).map(|(&t, _)| t).collect();
            if admit.is_empty() && expire.is_empty() {
                continue;
            }
            let mut expired = 0;
            for t in expire {
                for gone in self.live.remove(&t).unwrap_or_default() {
                    self.live_set.remove(&FactKey::of_event(&gone));
                    self.seen.remove(&event_key(&gone));
                    expired += 1;
                }
            }
            let mut admitted = 0;
            for t in admit {
                let entering = self.pending.remove(&t).unwrap_or_default();
                for e in &entering {
                    self.live_set.add(&FactKey::of_event(e));
                }
                admitted += entering.len();
                self.live.entry(t).or_default().extend(entering);
            }
            fires.push(ModelFire {
                end,
                admitted,
                expired,
                live: self.live_set,
            });
        }
        fires
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_temporal::Interval;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn checker_flags_hand_made_violations() {
        let mut g = UtkGraph::new();
        g.insert("Q1", "playsFor", "TeamA", iv(1990, 1995), 0.9)
            .unwrap();
        g.insert("Q1", "playsFor", "TeamB", iv(1995, 1998), 0.8)
            .unwrap(); // shares 1995
        g.insert("Q2", "spouse", "Q3", iv(1980, 1990), 0.9).unwrap();
        g.insert("Q2", "spouse", "Q4", iv(1985, 1986), 0.7).unwrap(); // inside
        g.insert("Q5", "birthDate", "1950", iv(1950, 2000), 1.0)
            .unwrap();
        g.insert("Q5", "birthDate", "1951", iv(1951, 2000), 0.6)
            .unwrap(); // overlaps
        assert_eq!(constraint_violations(&g).len(), 3);
    }

    #[test]
    fn checker_accepts_consistent_graph() {
        let mut g = UtkGraph::new();
        g.insert("Q1", "playsFor", "TeamA", iv(1990, 1995), 0.9)
            .unwrap();
        g.insert("Q1", "playsFor", "TeamB", iv(1996, 1998), 0.8)
            .unwrap(); // adjacent
        g.insert("Q1", "playsFor", "TeamA", iv(1993, 1994), 0.5)
            .unwrap(); // same club
        g.insert("Q2", "playsFor", "TeamB", iv(1990, 1995), 0.9)
            .unwrap(); // other person
        g.insert("Q1", "memberOf", "Org", iv(1990, 1995), 0.9)
            .unwrap(); // unconstrained
        g.insert("Q5", "birthDate", "1950", iv(1950, 2000), 1.0)
            .unwrap();
        g.insert("Q5", "birthDate", "1950", iv(1950, 1960), 0.6)
            .unwrap(); // same object
        assert!(constraint_violations(&g).is_empty());
    }

    #[test]
    fn fact_set_is_order_free_and_counts_copies() {
        let mut g = UtkGraph::new();
        g.insert("a", "p", "b", iv(1, 2), 0.5).unwrap();
        g.insert("c", "p", "d", iv(3, 4), 0.5).unwrap();
        let mut h = UtkGraph::new();
        h.insert("c", "p", "d", iv(3, 4), 0.5).unwrap();
        h.insert("a", "p", "b", iv(1, 2), 0.5).unwrap();
        assert_eq!(FactSet::of_graph(&g), FactSet::of_graph(&h));
        h.insert("a", "p", "b", iv(1, 2), 0.5).unwrap();
        assert_ne!(FactSet::of_graph(&g), FactSet::of_graph(&h));
        let mut k = UtkGraph::new();
        k.insert("a", "p", "b", iv(1, 2), 0.6).unwrap();
        k.insert("c", "p", "d", iv(3, 4), 0.5).unwrap();
        assert_ne!(FactSet::of_graph(&g), FactSet::of_graph(&k));
    }

    #[test]
    fn brute_force_probe_counts() {
        let mut g = UtkGraph::new();
        g.insert("Q1", "playsFor", "A", iv(1990, 1995), 0.9)
            .unwrap();
        g.insert("Q1", "playsFor", "A", iv(1997, 1999), 0.4)
            .unwrap();
        g.insert("Q2", "playsFor", "B", iv(1980, 1985), 0.8)
            .unwrap();
        let rows = rows(&g);
        let mut p = Probe::new(Verb::Count);
        p.predicate = Some("playsFor".into());
        p.time = Time::Over(1985, 1990);
        assert_eq!(p.expected(&rows), 2);
        p.time = Time::Before(1990, 2000);
        assert_eq!(p.expected(&rows), 1);
        p.time = Time::During(1989, 2000);
        assert_eq!(p.expected(&rows), 2);
        p.verb = Verb::Timeline;
        p.time = Time::Any;
        assert_eq!(p.expected(&rows), 2);
        p.verb = Verb::Q;
        p.min_confidence = Some(0.5);
        p.limit = Some(1);
        assert_eq!(p.expected(&rows), 1);
        assert_eq!(p.wire(), "Q p=playsFor minconf=0.5 limit=1");
    }

    #[test]
    fn window_model_admits_expires_and_drops() {
        let ev = |t: i64, o: &str| StreamEvent::new(t, "Q1", "playsFor", o, iv(t, t + 1), 0.9);
        // width 4, slide 2, lateness 0.
        let events = [
            ev(0, "A"),
            ev(1, "B"),
            ev(1, "B"), // duplicate
            ev(3, "C"), // watermark 3: fires end 2 (admits 0, 1)
            ev(0, "D"), // not late: the next window [0,4) has not fired
            ev(5, "E"), // watermark 5: fires end 4 (admits 3, 0)
            ev(1, "F"), // late: next window is [2,6)
            ev(7, "G"), // watermark 7: fires end 6 (admits 5, expires 0, 1, 0)
        ];
        let mut model = WindowModel::new(4, 2, 0);
        let mut shape = Vec::new();
        for (i, e) in events.iter().enumerate() {
            for f in model.push(e) {
                shape.push((i, f.end, f.admitted, f.expired, f.live.count));
            }
        }
        assert_eq!(
            shape,
            vec![(3, 2, 2, 0, 2), (5, 4, 2, 0, 4), (7, 6, 1, 3, 2)]
        );
    }
}
