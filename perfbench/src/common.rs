//! What the workloads share: their result type, the traced calls into
//! the resolve and query layers, and scratch directories.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tecore_core::{Snapshot, TecoreError};
use tecore_temporal::{AllenRelation, Interval};

use crate::check::{Probe, Time, Verb};
use crate::stats::{self, Ops};
use crate::trace::Tracer;

/// Set-ups per run; the report takes their median.
pub const SETUPS: usize = 9;

/// Per-layer metric values by name; layers a workload does not run are
/// absent.
pub type Layers = BTreeMap<&'static str, f64>;

/// The measured part of one phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub ops: Ops,
    /// Wall time of the phase minus the time spent in output checks.
    pub elapsed: Duration,
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.ops.completed() as f64 / self.elapsed.as_secs_f64()
    }

    pub fn p50_ms(&self) -> f64 {
        stats::median(self.ops.latencies_ms()).unwrap_or(f64::NAN)
    }
}

/// Counts the wall time of a phase apart from its checks.
pub struct PhaseClock {
    start: Instant,
    checking: Duration,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            start: Instant::now(),
            checking: Duration::ZERO,
        }
    }

    /// Runs output checks off the clock.
    pub fn off<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.checking += t.elapsed();
        out
    }

    pub fn measured(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.checking)
    }
}

/// What a workload hands back to the report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Each set-up's duration; the report takes their median.
    pub setups: Vec<Duration>,
    /// The measured phase, run with tracing off.
    pub phase: Phase,
    /// The same phase with tracing on (traced runs only).
    pub traced: Option<Phase>,
    pub layers: Layers,
}

/// Median of `values`, or 0 when the layer saw no samples.
pub fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Calls a resolve in a span named `name`, recording the program's own
/// account of the ground and solve layers on it.
pub fn traced_resolve(
    tracer: &mut Tracer,
    name: &'static str,
    resolve: impl FnOnce() -> Result<Arc<Snapshot>, TecoreError>,
) -> io::Result<Arc<Snapshot>> {
    let id = tracer.begin(name);
    let snapshot = resolve().map_err(io::Error::other)?;
    tracer.end(id);
    let s = &snapshot.stats;
    tracer.attr(id, "ground_ms", stats::ms(s.grounding_time));
    tracer.attr(id, "solve_ms", stats::ms(s.solve_time));
    tracer.attr(id, "atoms", s.atoms as f64);
    tracer.attr(id, "clauses", s.clauses as f64);
    tracer.attr(id, "components_solved", s.components_solved as f64);
    Ok(snapshot)
}

/// Materialises a snapshot's expanded graph, then its temporal index,
/// each in its own span.
pub fn materialise(tracer: &mut Tracer, snapshot: &Snapshot) {
    tracer.time("kg.expand", || snapshot.expanded());
    tracer.time("kg.index", || snapshot.index());
}

/// The resolve, ground and solve layers from spans named `name`.
pub fn resolve_layers(tracer: &Tracer, name: &str, layers: &mut Layers) {
    let ground = tracer.attr_values(name, "ground_ms");
    let solve = tracer.attr_values(name, "solve_ms");
    let interpret: Vec<f64> = tracer
        .named(name)
        .map(|s| s.ms() - s.attr("ground_ms").unwrap_or(0.0) - s.attr("solve_ms").unwrap_or(0.0))
        .collect();
    layers.insert("ground.ground_ms", med(&ground));
    layers.insert("ground.atoms", med(&tracer.attr_values(name, "atoms")));
    layers.insert("ground.clauses", med(&tracer.attr_values(name, "clauses")));
    layers.insert("mln.solve_ms", med(&solve));
    layers.insert(
        "mln.components_solved",
        med(&tracer.attr_values(name, "components_solved")),
    );
    layers.insert("core.interpret_ms", med(&interpret));
}

/// Answers `probe` through the program's query layer and returns the
/// answer size the wire would report.
pub fn run_probe(snapshot: &Snapshot, probe: &Probe) -> usize {
    let mut q = snapshot.query();
    if let Some(s) = &probe.subject {
        q = q.subject(s);
    }
    if let Some(p) = &probe.predicate {
        q = q.predicate(p);
    }
    if let Some(o) = &probe.object {
        q = q.object(o);
    }
    let iv = |a, b| Interval::new(a, b).expect("probe ranges are ordered");
    q = match probe.time {
        Time::Any => q,
        Time::At(t) => q.at(t),
        Time::Over(a, b) => q.overlapping(iv(a, b)),
        Time::Before(a, b) => q.allen(AllenRelation::Before, iv(a, b)),
        Time::During(a, b) => q.allen(AllenRelation::During, iv(a, b)),
    };
    if let Some(m) = probe.min_confidence {
        q = q.min_confidence(m);
    }
    let limit = probe.limit.unwrap_or(usize::MAX);
    match probe.verb {
        Verb::Count => q.count(),
        Verb::Q => q.iter().take(limit).count(),
        Verb::Objects => q.objects().len().min(limit),
        Verb::Timeline => q.timeline().len().min(limit),
    }
}

/// A scratch directory of this process under the benchmark's own
/// `work/` directory, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh subdirectory holding a copy of the files in `from`.
    pub fn copy_of(&self, from: &Path, name: &str) -> io::Result<PathBuf> {
        let to = self.0.join(name);
        if to.exists() {
            std::fs::remove_dir_all(&to)?;
        }
        std::fs::create_dir_all(&to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
        Ok(to)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The process's peak resident set, from `VmHWM`, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
