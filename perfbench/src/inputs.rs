//! Inputs made from the seed: graphs, edits, queries and the event
//! stream. Everything here is benchmark work and is never timed.

use std::collections::HashSet;

use tecore_core::pipeline::TecoreConfig;
use tecore_core::registry::SolverRegistry;
use tecore_datagen::config::{StreamConfig, WikidataConfig};
use tecore_datagen::standard::wikidata_program;
use tecore_datagen::stream::generate_stream;
use tecore_datagen::wikidata::generate_wikidata;
use tecore_kg::{StreamEvent, UtkGraph};
use tecore_logic::LogicProgram;

use crate::check::{mix, Probe, Time, Verb};

/// Facts asked of the generator for the large graph (it emits 32.7k).
pub const LARGE: usize = 32_000;
/// Facts asked for the small graph that `core.edit_scaling` divides by.
pub const SMALL: usize = 2_000;
/// Injected noise per correct fact.
pub const NOISE: f64 = 0.05;

/// Stream shape: a sliding window of `WIDTH` time units moving by
/// `SLIDE`, so each fire admits and expires about 1/20 of the live
/// facts. `RATE` events arrive per time unit.
pub const WIDTH: i64 = 400;
pub const SLIDE: i64 = 20;
pub const LATENESS: i64 = 4;
const RATE: f64 = 10.0;

/// The backend every workload uses: it re-solves dirty components only.
pub fn config() -> TecoreConfig {
    let backend = SolverRegistry::with_default_backends()
        .resolve("mln-walksat")
        .expect("mln-walksat is a default backend");
    TecoreConfig {
        backend,
        ..TecoreConfig::default()
    }
}

/// The wikidata program: `spouse`, `playsFor` and `birthDate`
/// constraints, all hard.
pub fn program() -> LogicProgram {
    wikidata_program()
}

/// The stream program: `playsFor` spells of one person are disjoint.
pub fn stream_program() -> LogicProgram {
    LogicProgram::parse(
        "wPlays: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z \
             -> disjoint(t, t') w = inf",
    )
    .expect("static program parses")
}

pub fn wikidata(facts: usize, seed: u64) -> UtkGraph {
    generate_wikidata(&WikidataConfig {
        total_facts: facts,
        noise_ratio: NOISE,
        seed: mix(seed ^ 0x7769_6b69),
    })
    .graph
}

/// Segment `segment` of the playsFor stream, `count` events from event
/// time `start` on: out-of-order arrivals, 2% duplicates and 10%
/// injected conflicts.
pub fn stream(count: usize, seed: u64, segment: u64, start: i64) -> Vec<StreamEvent> {
    generate_stream(&StreamConfig {
        events: count,
        people: 2_000,
        clubs: 50,
        rate: RATE,
        jitter: 3,
        duplicate_ratio: 0.02,
        conflict_ratio: 0.10,
        start_time: start,
        seed: mix(seed ^ 0x7374_7265 ^ mix(segment)),
    })
}

/// A small deterministic generator for the benchmark's own choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next() % items.len() as u64) as usize]
    }
}

/// A spell of an existing fact, to insert a rival against.
#[derive(Debug, Clone)]
struct Spell {
    subject: String,
    start: i64,
    end: i64,
}

/// One edit of an `edit_visible` round.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    Insert {
        subject: String,
        predicate: &'static str,
        object: String,
        start: i64,
        end: i64,
        confidence: f64,
    },
    /// Remove the fact the round's first insert added, by the id a `Q`
    /// row reports for it.
    RemoveQueried,
}

impl Edit {
    pub fn wire(&self, queried_id: Option<u32>) -> String {
        match self {
            Edit::Insert {
                subject,
                predicate,
                object,
                start,
                end,
                confidence,
            } => format!("INSERT {subject} {predicate} {object} [{start},{end}] {confidence}"),
            Edit::RemoveQueried => format!("REMOVE {}", queried_id.unwrap_or(u32::MAX)),
        }
    }

    /// Is this the insert whose fact the round later removes?
    pub fn is_removal_target(&self) -> bool {
        matches!(self, Edit::Insert { subject, .. } if subject.starts_with(NEW) && subject.ends_with('a'))
    }

    /// Does this insert add a person no other fact mentions?
    pub fn is_newcomer(&self) -> bool {
        matches!(self, Edit::Insert { subject, .. } if subject.starts_with(NEW))
    }
}

/// Subject prefix of inserted people; generated subjects start with `Q`.
const NEW: &str = "New";

/// Edits in rounds of five: a `playsFor` spell overlapping an existing
/// one, a fact about a new person, a `spouse` spell overlapping an
/// existing one, another new person, and the removal of the first new
/// person's fact. Half the inserts make the resolver choose; the new
/// people stand in no conflict, so their facts are always kept.
#[derive(Debug, Clone)]
pub struct EditPlan {
    rng: Rng,
    plays: Vec<Spell>,
    spouses: Vec<Spell>,
    round: u64,
}

pub const ROUND: usize = 5;

impl EditPlan {
    pub fn new(graph: &UtkGraph, seed: u64) -> EditPlan {
        let dict = graph.dict();
        let (mut plays, mut spouses) = (Vec::new(), Vec::new());
        for (_, f) in graph.iter() {
            let spell = Spell {
                subject: dict.resolve(f.subject).to_string(),
                start: f.interval.start().value(),
                end: f.interval.end().value(),
            };
            match dict.resolve(f.predicate) {
                "playsFor" => plays.push(spell),
                "spouse" => spouses.push(spell),
                _ => {}
            }
        }
        EditPlan {
            rng: Rng::new(seed, 0xED17),
            plays,
            spouses,
            round: 0,
        }
    }

    fn rival(&mut self, predicate: &'static str) -> Edit {
        let spells = if predicate == "playsFor" {
            &self.plays
        } else {
            &self.spouses
        };
        let spell = self.rng.pick(spells).clone();
        let start = self.rng.range(spell.start, spell.end);
        let end = start + self.rng.range(0, 5);
        Edit::Insert {
            subject: spell.subject,
            predicate,
            object: format!("Rival{}{}", predicate, self.round),
            start,
            end,
            confidence: 0.5 + self.rng.range(0, 45) as f64 / 100.0,
        }
    }

    fn newcomer(&mut self, which: &str) -> Edit {
        let start = self.rng.range(1950, 2010);
        Edit::Insert {
            subject: format!("{NEW}{}{which}", self.round),
            predicate: "playsFor",
            object: format!("NewClub{}", self.round),
            start,
            end: start + self.rng.range(1, 8),
            confidence: 0.8,
        }
    }

    pub fn next_round(&mut self) -> [Edit; ROUND] {
        self.round += 1;
        [
            self.rival("playsFor"),
            self.newcomer("a"),
            self.rival("spouse"),
            self.newcomer("b"),
            Edit::RemoveQueried,
        ]
    }
}

/// The poll an edit waits on: every fact of a subject and predicate.
pub fn poll(subject: &str, predicate: &str) -> Probe {
    let mut p = Probe::new(Verb::Q);
    p.subject = Some(subject.to_string());
    p.predicate = Some(predicate.to_string());
    p
}

/// Queries in one `query_mix` batch: `BATCH / TEMPLATES` draws of every
/// template.
pub const BATCH: usize = 240;
const TEMPLATES: usize = 12;

/// One batch of queries, each template drawn `BATCH / TEMPLATES` times.
/// A `report` batch has the same size, with its point lookups replaced
/// by scans of every `playsFor` spell over a 10-year range.
pub fn query_batch(rng: &mut Rng, subjects: &[String], report: bool) -> Vec<Probe> {
    (0..BATCH / TEMPLATES)
        .flat_map(|_| query_templates(rng, subjects, report))
        .collect()
}

/// One query of every template, covering every wire verb and time
/// clause: stabs on `birthDate`, range scans, Allen relations, limited
/// `Q` rows over wide ranges, and point lookups or, in a `report`,
/// wide scans.
pub fn query_templates(rng: &mut Rng, subjects: &[String], report: bool) -> Vec<Probe> {
    let mut out = Vec::with_capacity(TEMPLATES);
    let year = |rng: &mut Rng| rng.range(1930, 2020);
    let with = |verb, p: Option<&str>, time, limit| {
        let mut q = Probe::new(verb);
        q.predicate = p.map(str::to_string);
        q.time = time;
        q.limit = limit;
        q
    };
    let y = year(rng);
    out.push(with(Verb::Count, Some("birthDate"), Time::At(y), None));
    let y = year(rng);
    out.push(with(
        Verb::Q,
        Some("playsFor"),
        Time::Over(y, y + 10),
        Some(50),
    ));
    let y = year(rng);
    out.push(with(
        Verb::Count,
        Some("playsFor"),
        Time::Over(y, y + 3),
        None,
    ));
    let y = year(rng);
    out.push(with(
        Verb::Q,
        Some("playsFor"),
        Time::During(y, y + 15),
        Some(20),
    ));
    let y = year(rng);
    out.push(with(
        Verb::Count,
        Some("spouse"),
        Time::Before(y, y + 5),
        None,
    ));
    let y = year(rng);
    out.push(with(Verb::Objects, Some("playsFor"), Time::At(y), Some(30)));
    let y = year(rng);
    out.push(with(
        Verb::Timeline,
        Some("spouse"),
        Time::Over(y, y + 5),
        Some(10),
    ));
    let mut q = with(Verb::Q, Some("spouse"), Time::Any, Some(20));
    q.min_confidence = Some(0.9);
    out.push(q);
    for (verb, limit) in [
        (Verb::Q, 200),
        (Verb::Timeline, 20),
        (Verb::Objects, 20),
        (Verb::Count, 0),
    ] {
        let mut q = Probe::new(verb);
        if report {
            let y = year(rng);
            q.predicate = Some("playsFor".into());
            q.time = Time::Over(y, y + 10);
            q.limit = (limit > 0).then_some(limit);
        } else {
            q.subject = Some(rng.pick(subjects).clone());
        }
        out.push(q);
    }
    out
}

/// Distinct subjects of `graph`, in id order of first appearance.
pub fn subjects(graph: &UtkGraph) -> Vec<String> {
    let mut seen = HashSet::new();
    let dict = graph.dict();
    graph
        .iter()
        .filter(|(_, f)| seen.insert(f.subject))
        .map(|(_, f)| dict.resolve(f.subject).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_for_a_seed() {
        let g = wikidata(SMALL, 3);
        let a: Vec<_> = (0..3).map(|_| EditPlan::new(&g, 3).next_round()).collect();
        let mut plan = EditPlan::new(&g, 3);
        assert_eq!(a[0], plan.next_round());
        assert_ne!(a[0], plan.next_round());
        assert_eq!(a[0].len(), ROUND);
        assert_eq!(a[0][ROUND - 1], Edit::RemoveQueried);
    }
}
