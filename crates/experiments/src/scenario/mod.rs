//! Declarative scenario grids: a data-driven experiment matrix compiled
//! into the barrier-free task pool.
//!
//! A *scenario* is a small TOML file (parsed by [`toml`], the in-repo
//! subset parser) with three sections:
//!
//! ```text
//! [scenario]
//! name = "qdepth"          # section name of the emitted table(s)
//! kind = "grid"            # which compiler interprets the axes
//!
//! [axes]                   # declaration order = nesting order
//! trace = "ts_0"           # scalar = a one-value axis
//! policy = ["LRU", "BPLRU", "VBBMS", "Req-block"]
//! qdepth = [1, 2, 4, 8, 16, 32]
//!
//! [output]                 # optional
//! section = "qdepth"       # defaults to scenario.name
//! columns = ["policy", "qdepth", "avg_resp_ms"]   # axes and metrics
//! headers = ["Policy", "Depth", "Mean resp (ms)"] # one per column
//! ```
//!
//! [`plan`] validates the axes against the kind's schema and compiles the
//! cartesian grid into a flat job list with one order-preserving result
//! slot per job (the [`reqblock_sim::run_task_pool`] contract), plus a
//! pure build closure that renders the results into tables. Because task
//! *claiming* order never influences which slot a result lands in, the
//! rendered tables — and therefore each section's [`section_digest`] — are
//! byte-identical at any thread count.
//!
//! The generic `grid` kind composes any subset of the axes (policy x
//! trace x scale x delta x qdepth x fault_ppm x load_mult x geometry)
//! with a title/column/header/group-by output spec, one row per grid
//! point; the tails, wear, ablations, faults and qdepth tables are plain
//! `grid` files. Only two kinds stay bespoke, because their output is not
//! one row per grid point: `comparison` renders seven sections (Figures
//! 8-12, summary, perf) plus charts from one shared grid, and `load`
//! appends a bursty arrival row per policy that is not a grid point. The
//! committed files under `scenarios/` are the canonical definitions and
//! are embedded here as [`BUILTIN_SCENARIOS`].

pub mod toml;

use crate::extensions::{
    ablation_variants, calibrated_service_gap_ns, load_build, pressured_ssd, LOAD_BURST,
    PRESSURED_CACHE_PAGES,
};
use crate::figures::{
    comparison_build_from, comparison_jobs_from, fig10, fig11, fig12, fig8, fig9, perf_table,
    policy_means, summary, Opts,
};
use crate::report::{f2, f3, pct, Table};
use reqblock_cache::fxhash::FxHasher;
use reqblock_core::ReqBlockConfig;
use reqblock_sim::{
    run_task_pool, ArrivalProcess, CacheSizeMb, FaultConfig, Job, JobPool, PolicyKind, RunResult,
    SimConfig, SubmitMode, Task, TraceSource,
};
use reqblock_trace::profiles::profile_by_name;
use reqblock_trace::WorkloadProfile;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A scenario validation or compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// What was wrong (parser errors keep their `line N:` prefix).
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError { msg: msg.into() })
}

// ---------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------

/// Which compiler interprets a scenario's axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figures 8-12 + summary + perf: the (trace x cache x policy) grid.
    Comparison,
    /// Open-loop latency vs offered throughput per policy, plus a bursty
    /// row per policy.
    Load,
    /// Generic cartesian grid with a declarative column spec.
    Grid,
}

impl Kind {
    /// Parse the `[scenario] kind` string.
    pub fn from_name(name: &str) -> Option<Kind> {
        Some(match name {
            "comparison" => Kind::Comparison,
            "load" => Kind::Load,
            "grid" => Kind::Grid,
            _ => return None,
        })
    }

    /// The `kind = "..."` spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Kind::Comparison => "comparison",
            Kind::Load => "load",
            Kind::Grid => "grid",
        }
    }

    /// Axis schema: which axes the kind understands, which must be
    /// present, and which may hold only a single value.
    fn spec(&self) -> KindSpec {
        match self {
            Kind::Comparison => KindSpec {
                allowed: &["trace", "policy", "cache_mb"],
                required: &["trace", "policy", "cache_mb"],
                singleton: &[],
            },
            Kind::Load => KindSpec {
                allowed: &["trace", "policy", "load_mult", "qdepth", "cache_mb"],
                required: &["trace", "policy", "load_mult"],
                singleton: &["trace", "qdepth", "cache_mb"],
            },
            Kind::Grid => KindSpec {
                allowed: &[
                    "trace", "policy", "cache_mb", "delta", "qdepth", "fault_ppm", "load_mult",
                    "geometry", "scale",
                ],
                required: &["trace", "policy"],
                singleton: &[],
            },
        }
    }
}

struct KindSpec {
    allowed: &'static [&'static str],
    required: &'static [&'static str],
    singleton: &'static [&'static str],
}

/// The scalar type an axis carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AxisType {
    Str,
    Int,
    Float,
}

/// Every axis the schema knows, with its value type.
const AXIS_TYPES: [(&str, AxisType); 9] = [
    ("trace", AxisType::Str),
    ("policy", AxisType::Str),
    ("cache_mb", AxisType::Int),
    ("delta", AxisType::Int),
    ("qdepth", AxisType::Int),
    ("fault_ppm", AxisType::Int),
    ("load_mult", AxisType::Float),
    ("geometry", AxisType::Str),
    ("scale", AxisType::Float),
];

fn axis_type(name: &str) -> Option<AxisType> {
    AXIS_TYPES.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
}

/// The values of one axis. A scalar in the file becomes a one-value axis;
/// integer literals on a float axis are promoted.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// String-valued axis (`trace`, `policy`, `geometry`).
    Strs(Vec<String>),
    /// Integer-valued axis (`cache_mb`, `delta`, `qdepth`, `fault_ppm`).
    Ints(Vec<i64>),
    /// Float-valued axis (`load_mult`, `scale`).
    Floats(Vec<f64>),
}

impl AxisValues {
    /// Number of grid points along this axis.
    pub fn len(&self) -> usize {
        match self {
            AxisValues::Strs(v) => v.len(),
            AxisValues::Ints(v) => v.len(),
            AxisValues::Floats(v) => v.len(),
        }
    }

    /// True when the axis has no values (always rejected by validation).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Display cell for one grid point.
    fn display(&self, i: usize) -> String {
        match self {
            AxisValues::Strs(v) => v[i].clone(),
            AxisValues::Ints(v) => v[i].to_string(),
            AxisValues::Floats(v) => format!("{}", v[i]),
        }
    }

    fn from_value(value: &toml::Value, axis: &str) -> Result<AxisValues, ScenarioError> {
        let items: Vec<&toml::Value> = match value {
            toml::Value::Array(items) => {
                if items.is_empty() {
                    return err(format!("axis {axis:?} is an empty grid (no values)"));
                }
                items.iter().collect()
            }
            scalar => vec![scalar],
        };
        // Infer the common scalar shape, promoting Int -> Float on mixes.
        let mut any_float = false;
        let mut any_int = false;
        let mut any_str = false;
        for item in &items {
            match item {
                toml::Value::Str(_) => any_str = true,
                toml::Value::Int(_) => any_int = true,
                toml::Value::Float(_) => any_float = true,
                other => {
                    return err(format!(
                        "axis {axis:?} holds a {}; only strings and numbers are axis values",
                        other.type_name()
                    ))
                }
            }
        }
        if any_str && (any_int || any_float) {
            return err(format!("axis {axis:?} mixes strings and numbers"));
        }
        if any_str {
            let strs = items
                .iter()
                .map(|v| match v {
                    toml::Value::Str(s) => s.clone(),
                    _ => unreachable!(),
                })
                .collect();
            return Ok(AxisValues::Strs(strs));
        }
        if any_float {
            let floats = items
                .iter()
                .map(|v| match v {
                    toml::Value::Int(i) => *i as f64,
                    toml::Value::Float(f) => *f,
                    _ => unreachable!(),
                })
                .collect();
            return Ok(AxisValues::Floats(floats));
        }
        let ints: Vec<i64> = items
            .iter()
            .map(|v| match v {
                toml::Value::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        if axis_type(axis) == Some(AxisType::Float) {
            return Ok(AxisValues::Floats(ints.into_iter().map(|i| i as f64).collect()));
        }
        Ok(AxisValues::Ints(ints))
    }
}

/// The optional `[output]` section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputSpec {
    /// Section name of the emitted table (single-section kinds only;
    /// defaults to the scenario name).
    pub section: Option<String>,
    /// Table title (`grid` kind only).
    pub title: Option<String>,
    /// Column spec: axis names and/or metric names (`grid` kind only).
    pub columns: Option<Vec<String>>,
    /// Display header per `columns` entry, same length (`grid` kind only;
    /// defaults to the column names).
    pub headers: Option<Vec<String>>,
    /// Axes hoisted to the outermost nesting positions, in the given
    /// order (`grid` kind only).
    pub group_by: Option<Vec<String>>,
}

/// A parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[A-Za-z0-9_-]+`); the default section name.
    pub name: String,
    /// Which compiler interprets the axes.
    pub kind: Kind,
    /// `(axis, values)` in declaration order — the grid nesting order.
    axes: Vec<(String, AxisValues)>,
    /// The `[output]` section.
    pub output: OutputSpec,
}

impl Scenario {
    /// Parse and validate a scenario document.
    pub fn parse(src: &str) -> Result<Scenario, ScenarioError> {
        let doc = toml::parse(src).map_err(|e| ScenarioError { msg: e.to_string() })?;
        Scenario::from_doc(&doc)
    }

    /// Build and validate a scenario from a parsed document.
    pub fn from_doc(doc: &toml::Doc) -> Result<Scenario, ScenarioError> {
        for (section, _) in &doc.sections {
            if !matches!(section.as_str(), "scenario" | "axes" | "output") {
                return err(format!(
                    "unknown section [{section}]; expected [scenario], [axes], [output]"
                ));
            }
        }
        let meta = doc
            .section("scenario")
            .ok_or_else(|| ScenarioError { msg: "missing [scenario] section".into() })?;
        let mut name = None;
        let mut kind = None;
        for (key, value) in meta {
            match (key.as_str(), value) {
                ("name", toml::Value::Str(s)) => name = Some(s.clone()),
                ("kind", toml::Value::Str(s)) => {
                    kind = Some(Kind::from_name(s).ok_or_else(|| ScenarioError {
                        msg: format!(
                            "unknown kind {s:?}; expected one of comparison, load, grid \
                             (tables such as tails, wear, ablations, faults and qdepth are \
                             grid scenarios)"
                        ),
                    })?)
                }
                ("name" | "kind", v) => {
                    return err(format!("scenario.{key} must be a string, found {}", v.type_name()))
                }
                _ => return err(format!("unknown key scenario.{key}")),
            }
        }
        let name = name.ok_or_else(|| ScenarioError { msg: "missing scenario.name".into() })?;
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return err(format!("invalid scenario name {name:?} (use [A-Za-z0-9_-]+)"));
        }
        let kind = kind.ok_or_else(|| ScenarioError { msg: "missing scenario.kind".into() })?;

        let mut axes = Vec::new();
        for (key, value) in doc.section("axes").unwrap_or(&[]) {
            axes.push((key.clone(), AxisValues::from_value(value, key)?));
        }

        let mut output = OutputSpec::default();
        for (key, value) in doc.section("output").unwrap_or(&[]) {
            let as_str = |v: &toml::Value| -> Result<String, ScenarioError> {
                match v {
                    toml::Value::Str(s) => Ok(s.clone()),
                    v => err(format!("output.{key} must be a string, found {}", v.type_name())),
                }
            };
            let as_str_list = |v: &toml::Value| -> Result<Vec<String>, ScenarioError> {
                match v {
                    toml::Value::Array(items) => items
                        .iter()
                        .map(|i| match i {
                            toml::Value::Str(s) => Ok(s.clone()),
                            i => err(format!(
                                "output.{key} must hold strings, found {}",
                                i.type_name()
                            )),
                        })
                        .collect(),
                    v => err(format!("output.{key} must be an array, found {}", v.type_name())),
                }
            };
            match key.as_str() {
                "section" => output.section = Some(as_str(value)?),
                "title" => output.title = Some(as_str(value)?),
                "columns" => output.columns = Some(as_str_list(value)?),
                "headers" => output.headers = Some(as_str_list(value)?),
                "group_by" => output.group_by = Some(as_str_list(value)?),
                _ => return err(format!("unknown key output.{key}")),
            }
        }

        let sc = Scenario { name, kind, axes, output };
        sc.validate()?;
        Ok(sc)
    }

    /// The values of one axis, if declared.
    pub fn axis(&self, name: &str) -> Option<&AxisValues> {
        self.axes.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// All axes in declaration order.
    pub fn axes(&self) -> &[(String, AxisValues)] {
        &self.axes
    }

    /// Replace (or append) one axis and re-validate — the hook the CLI's
    /// `--depths`/`--rates` overrides use.
    pub fn set_axis(&mut self, name: &str, values: AxisValues) -> Result<(), ScenarioError> {
        match self.axes.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = values,
            None => self.axes.push((name.to_string(), values)),
        }
        self.validate()
    }

    /// One line of `axis[len]` pairs for `repro --list`.
    pub fn axis_summary(&self) -> String {
        self.axes
            .iter()
            .map(|(n, v)| format!("{n}[{}]", v.len()))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Jobs the planner will emit, computed from the axis lengths alone
    /// (no simulation, no calibration run — safe for `repro --list`).
    pub fn estimated_jobs(&self) -> usize {
        let len = |n: &str| self.axis(n).map(|a| a.len()).unwrap_or(1);
        match self.kind {
            Kind::Comparison => len("trace") * len("cache_mb") * len("policy"),
            // One bursty row per policy rides along with the Poisson steps.
            Kind::Load => len("policy") * (len("load_mult") + 1),
            Kind::Grid => self.axes.iter().map(|(_, v)| v.len()).product(),
        }
    }

    /// Check the axes and output spec against the kind's schema.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let spec = self.kind.spec();
        let kind = self.kind.name();
        if self.axes.is_empty() {
            return err(format!("scenario {:?} declares no axes (empty grid)", self.name));
        }
        for (axis, values) in &self.axes {
            let Some(ty) = axis_type(axis) else {
                return err(format!(
                    "unknown axis {axis:?}; known axes: {}",
                    AXIS_TYPES.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                ));
            };
            if !spec.allowed.contains(&axis.as_str()) {
                return err(format!(
                    "axis {axis:?} is not allowed for kind {kind:?} (allowed: {})",
                    spec.allowed.join(", ")
                ));
            }
            if values.is_empty() {
                return err(format!("axis {axis:?} is an empty grid (no values)"));
            }
            if spec.singleton.contains(&axis.as_str()) && values.len() != 1 {
                return err(format!(
                    "axis {axis:?} must hold a single value for kind {kind:?}"
                ));
            }
            // Type check (`from_value` promotes integer literals on float
            // axes; a hand-built Ints axis on a float axis is rejected).
            let ok = matches!(
                (ty, values),
                (AxisType::Str, AxisValues::Strs(_))
                    | (AxisType::Int, AxisValues::Ints(_))
                    | (AxisType::Float, AxisValues::Floats(_))
            );
            if !ok {
                let want = match ty {
                    AxisType::Str => "strings",
                    AxisType::Int => "integers",
                    AxisType::Float => "floats",
                };
                return err(format!("axis {axis:?} must hold {want}"));
            }
            validate_axis_values(axis, values)?;
        }
        for req in spec.required {
            if self.axis(req).is_none() {
                return err(format!("kind {kind:?} requires the {req:?} axis"));
            }
        }
        // Kind-specific cross-axis rules.
        if self.kind == Kind::Comparison {
            let AxisValues::Strs(policies) = self.axis("policy").unwrap() else { unreachable!() };
            for anchor in ["LRU", "Req-block"] {
                if !policies.iter().any(|p| p == anchor) {
                    return err(format!(
                        "comparison scenarios need {anchor:?} in the policy axis \
                         (it anchors the normalized figures)"
                    ));
                }
            }
        }
        if self.kind == Kind::Grid {
            if self.axis("delta").is_some() {
                let AxisValues::Strs(policies) = self.axis("policy").unwrap() else {
                    unreachable!()
                };
                if policies.iter().any(|p| p != "Req-block") {
                    return err(
                        "the delta axis tunes Req-block; a grid sweeping delta must set \
                         policy to \"Req-block\" only",
                    );
                }
            }
            if let Some(AxisValues::Strs(g)) = self.axis("geometry") {
                if g.iter().any(|g| g == "pressured") && self.axis("cache_mb").is_some() {
                    return err(format!(
                        "geometry \"pressured\" fixes the write buffer at \
                         {PRESSURED_CACHE_PAGES} pages; drop the cache_mb axis"
                    ));
                }
            }
        }
        // Output spec.
        if self.kind == Kind::Comparison && self.output.section.is_some() {
            return err("comparison scenarios emit fixed sections (fig8..fig12, summary, perf); \
                        output.section does not apply");
        }
        if self.kind != Kind::Grid {
            for (key, set) in [
                ("title", self.output.title.is_some()),
                ("columns", self.output.columns.is_some()),
                ("headers", self.output.headers.is_some()),
                ("group_by", self.output.group_by.is_some()),
            ] {
                if set {
                    return err(format!("output.{key} applies to grid scenarios only"));
                }
            }
        } else {
            if let Some(cols) = &self.output.columns {
                for col in cols {
                    let is_axis = self.axis(col).is_some();
                    let is_metric = METRICS.iter().any(|(n, _)| n == col);
                    if !is_axis && !is_metric {
                        return err(format!(
                            "output.columns entry {col:?} is neither a declared axis nor a \
                             metric (metrics: {})",
                            METRICS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                        ));
                    }
                }
            }
            if let Some(headers) = &self.output.headers {
                let Some(cols) = &self.output.columns else {
                    return err("output.headers needs output.columns (one header per column)");
                };
                if headers.len() != cols.len() {
                    return err(format!(
                        "output.headers has {} entries but output.columns has {}",
                        headers.len(),
                        cols.len()
                    ));
                }
            }
            if let Some(group) = &self.output.group_by {
                for g in group {
                    if self.axis(g).is_none() {
                        return err(format!("output.group_by entry {g:?} is not a declared axis"));
                    }
                }
                for (i, g) in group.iter().enumerate() {
                    if group[..i].contains(g) {
                        return err(format!("output.group_by repeats {g:?}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-axis value checks (independent of kind).
fn validate_axis_values(axis: &str, values: &AxisValues) -> Result<(), ScenarioError> {
    match (axis, values) {
        ("trace", AxisValues::Strs(v)) => {
            for t in v {
                if profile_by_name(t).is_none() {
                    return err(format!("unknown trace {t:?}"));
                }
            }
        }
        ("policy", AxisValues::Strs(v)) => {
            for p in v {
                if policy_by_name(p).is_none() {
                    let known: Vec<String> =
                        known_policies().map(|(n, _)| format!("{n:?}")).collect();
                    return err(format!("unknown policy {p:?} (known: {})", known.join(", ")));
                }
            }
        }
        ("cache_mb", AxisValues::Ints(v)) => {
            for &mb in v {
                if cache_from_mb(mb).is_none() {
                    return err(format!("cache_mb {mb} is not one of 16, 32, 64"));
                }
            }
        }
        ("delta" | "qdepth", AxisValues::Ints(v)) => {
            for &x in v {
                if x < 1 || x > u32::MAX as i64 {
                    return err(format!("{axis} {x} is out of range (>= 1)"));
                }
            }
        }
        ("fault_ppm", AxisValues::Ints(v)) => {
            for &x in v {
                if !(0..=1_000_000).contains(&x) {
                    return err(format!("fault_ppm {x} is out of range (0..=1000000)"));
                }
            }
        }
        ("load_mult" | "scale", AxisValues::Floats(v)) => {
            for &x in v {
                if !x.is_finite() || x <= 0.0 {
                    return err(format!("{axis} {x} must be a finite positive number"));
                }
            }
        }
        ("geometry", AxisValues::Strs(v)) => {
            for g in v {
                if g != "paper" && g != "pressured" {
                    return err(format!("unknown geometry {g:?} (paper or pressured)"));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// Every policy a `policy` axis accepts, by name: the paper's four schemes
/// under their figure names, then the [`ablation_variants`].
fn known_policies() -> impl Iterator<Item = (&'static str, PolicyKind)> {
    PolicyKind::paper_comparison().into_iter().map(|p| (p.name(), p)).chain(ablation_variants())
}

/// Map a policy display name to its paper-default [`PolicyKind`], or an
/// [`ablation_variants`] name to its variant.
pub fn policy_by_name(name: &str) -> Option<PolicyKind> {
    known_policies().find(|(n, _)| *n == name).map(|(_, p)| p)
}

fn cache_from_mb(mb: i64) -> Option<CacheSizeMb> {
    Some(match mb {
        16 => CacheSizeMb::Mb16,
        32 => CacheSizeMb::Mb32,
        64 => CacheSizeMb::Mb64,
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Plan / outcome
// ---------------------------------------------------------------------

/// Sections excluded from digests: their cells carry host wall-clock
/// measurements, which legitimately vary run to run.
pub const UNSTABLE_SECTIONS: [&str; 1] = ["perf"];

/// The stable FxHash digest of one section's tables: markdown and CSV
/// renderings, in table order. Byte-identity proof for the thread-scaling
/// gate — equal digests mean equal bytes on disk.
pub fn section_digest(tables: &[Table]) -> u64 {
    let mut h = FxHasher::default();
    for t in tables {
        h.write(t.to_markdown().as_bytes());
        h.write(t.to_csv().as_bytes());
    }
    h.finish()
}

/// What a scenario renders: sections (each a named group of tables, like
/// the `repro` output files) plus optional terminal bar charts.
pub struct ScenarioOutcome {
    /// `(section name, tables)` in emission order.
    pub sections: Vec<(String, Vec<Table>)>,
    /// `(chart title, labelled values)` for the terminal.
    pub charts: Vec<(String, Vec<(String, f64)>)>,
}

impl ScenarioOutcome {
    /// Per-section digests, skipping [`UNSTABLE_SECTIONS`].
    pub fn digests(&self) -> Vec<(String, u64)> {
        self.sections
            .iter()
            .filter(|(name, _)| !UNSTABLE_SECTIONS.contains(&name.as_str()))
            .map(|(name, tables)| (name.clone(), section_digest(tables)))
            .collect()
    }

    /// The single table of a single-section outcome (panics otherwise —
    /// the wrapper entry points in `extensions` use this).
    pub fn into_single_table(mut self) -> Table {
        assert_eq!(self.sections.len(), 1, "scenario emits more than one section");
        let (_, mut tables) = self.sections.pop().expect("one section");
        assert_eq!(tables.len(), 1, "section holds more than one table");
        tables.pop().expect("one table")
    }
}

type BuildFn = Box<dyn FnOnce(Vec<(String, RunResult)>) -> ScenarioOutcome>;

/// A compiled scenario: the flat job list (one order-preserving result
/// slot per job) plus the pure build closure. `tasks` borrows the plan;
/// submit them into any [`run_task_pool`] and call [`ScenarioPlan::finish`]
/// once the pool has drained.
pub struct ScenarioPlan {
    name: String,
    pool: JobPool,
    build: BuildFn,
}

impl ScenarioPlan {
    /// The scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of pooled simulation jobs.
    pub fn job_count(&self) -> usize {
        self.pool.job_count()
    }

    /// One task per job, routing each result into its pre-allocated slot.
    pub fn tasks(&self) -> Vec<Task<'_>> {
        self.pool.tasks()
    }

    /// Render the outcome from the filled slots (call after the pool has
    /// drained every task).
    pub fn finish(self) -> ScenarioOutcome {
        (self.build)(self.pool.take_results())
    }

    /// Run the plan on its own pool with `threads` workers.
    pub fn run(self, threads: usize) -> ScenarioOutcome {
        let tasks = self.tasks();
        run_task_pool(tasks, threads);
        self.finish()
    }
}

/// Compile a validated scenario against the harness options.
pub fn plan(sc: &Scenario, opts: &Opts) -> Result<ScenarioPlan, ScenarioError> {
    sc.validate()?;
    let (jobs, build) = match sc.kind {
        Kind::Comparison => compile_comparison(sc, opts),
        Kind::Load => compile_load(sc, opts),
        Kind::Grid => compile_grid(sc, opts),
    };
    Ok(ScenarioPlan { name: sc.name.clone(), pool: JobPool::new(jobs), build })
}

/// Plan and run a scenario in one call.
pub fn run(sc: &Scenario, opts: &Opts) -> Result<ScenarioOutcome, ScenarioError> {
    Ok(plan(sc, opts)?.run(opts.threads))
}

// ---------------------------------------------------------------------
// Built-in scenarios (the committed files, embedded)
// ---------------------------------------------------------------------

/// The committed scenario files under `scenarios/`, embedded so the
/// library needs no runtime path to them. `repro all` and the
/// `extensions` entry points run these; `repro --list` lists them.
pub const BUILTIN_SCENARIOS: [(&str, &str); 8] = [
    ("comparison", include_str!("../../../../scenarios/comparison.toml")),
    ("tails", include_str!("../../../../scenarios/tails.toml")),
    ("wear", include_str!("../../../../scenarios/wear.toml")),
    ("ablations", include_str!("../../../../scenarios/ablations.toml")),
    ("faults", include_str!("../../../../scenarios/faults.toml")),
    ("qdepth", include_str!("../../../../scenarios/qdepth.toml")),
    ("load", include_str!("../../../../scenarios/load.toml")),
    ("smoke", include_str!("../../../../scenarios/smoke.toml")),
];

/// Parse one built-in scenario by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    let (_, src) = BUILTIN_SCENARIOS.iter().find(|(n, _)| *n == name)?;
    Some(Scenario::parse(src).unwrap_or_else(|e| panic!("builtin scenario {name}: {e}")))
}

/// Compile one built-in scenario (panics on an unknown name — the
/// committed files are pinned by tests).
pub fn plan_builtin(name: &str, opts: &Opts) -> ScenarioPlan {
    let sc = builtin(name).unwrap_or_else(|| panic!("no builtin scenario {name:?}"));
    plan(&sc, opts).unwrap_or_else(|e| panic!("builtin scenario {name}: {e}"))
}

/// Compile and run one built-in scenario on its own pool.
pub fn run_builtin(name: &str, opts: &Opts) -> ScenarioOutcome {
    plan_builtin(name, opts).run(opts.threads)
}

// ---------------------------------------------------------------------
// Kind compilers
// ---------------------------------------------------------------------

fn single_section(section: String, table: Table) -> ScenarioOutcome {
    ScenarioOutcome { sections: vec![(section, vec![table])], charts: vec![] }
}

/// Post-validation axis getters (unwraps are guarded by `validate`).
fn strs(sc: &Scenario, name: &str) -> Vec<String> {
    match sc.axis(name) {
        Some(AxisValues::Strs(v)) => v.clone(),
        _ => unreachable!("validated string axis {name}"),
    }
}

fn ints(sc: &Scenario, name: &str) -> Vec<i64> {
    match sc.axis(name) {
        Some(AxisValues::Ints(v)) => v.clone(),
        _ => unreachable!("validated integer axis {name}"),
    }
}

fn floats(sc: &Scenario, name: &str) -> Vec<f64> {
    match sc.axis(name) {
        Some(AxisValues::Floats(v)) => v.clone(),
        _ => unreachable!("validated float axis {name}"),
    }
}

fn profiles_of(sc: &Scenario, opts: &Opts) -> Vec<WorkloadProfile> {
    strs(sc, "trace")
        .iter()
        .map(|t| profile_by_name(t).expect("validated trace").scaled(opts.scale))
        .collect()
}

fn policies_of(sc: &Scenario) -> Vec<PolicyKind> {
    strs(sc, "policy").iter().map(|p| policy_by_name(p).expect("validated policy")).collect()
}

/// The `cache_mb` singleton, defaulting to the paper's 32 MB headline.
fn single_cache(sc: &Scenario) -> CacheSizeMb {
    match sc.axis("cache_mb") {
        Some(AxisValues::Ints(v)) => cache_from_mb(v[0]).expect("validated cache_mb"),
        _ => CacheSizeMb::Mb32,
    }
}

fn section_name(sc: &Scenario) -> String {
    sc.output.section.clone().unwrap_or_else(|| sc.name.clone())
}

/// The comparison grid (Figures 8-12 + summary + perf) from the `trace`,
/// `cache_mb`, and `policy` axes, nested in that order like the legacy
/// hand-coded grid.
fn compile_comparison(sc: &Scenario, opts: &Opts) -> (Vec<Job>, BuildFn) {
    let profiles = profiles_of(sc, opts);
    let caches: Vec<CacheSizeMb> =
        ints(sc, "cache_mb").into_iter().map(|mb| cache_from_mb(mb).expect("validated")).collect();
    let policies = policies_of(sc);
    let jobs = comparison_jobs_from(opts, &profiles, &caches, &policies);
    let traces: Vec<String> = profiles.iter().map(|p| p.name.clone()).collect();
    let policy_names: Vec<&'static str> = policies.iter().map(|p| p.name()).collect();
    let build: BuildFn = Box::new(move |results| {
        let cmp = comparison_build_from(traces, caches, policy_names, results);
        let means = policy_means(&cmp);
        ScenarioOutcome {
            sections: vec![
                ("fig8".into(), vec![fig8(&cmp)]),
                ("fig9".into(), vec![fig9(&cmp)]),
                ("fig10".into(), vec![fig10(&cmp)]),
                ("fig11".into(), vec![fig11(&cmp)]),
                ("fig12".into(), vec![fig12(&cmp)]),
                ("summary".into(), vec![summary(&cmp)]),
                ("perf".into(), vec![perf_table(&cmp)]),
            ],
            charts: vec![
                (
                    "mean response time (normalized to LRU, lower is better)".into(),
                    means.iter().map(|(n, r, _)| (n.clone(), *r)).collect(),
                ),
                (
                    "mean hit ratio (normalized to Req-block, higher is better)".into(),
                    means.iter().map(|(n, _, h)| (n.clone(), *h)).collect(),
                ),
            ],
        }
    });
    (jobs, build)
}

/// The open-loop load grid: each policy at each `load_mult` multiple of
/// the calibrated service rate (Poisson), plus the fixed bursty 1x row.
/// Arrival seeds depend only on the position in the multiplier list, so
/// every policy sees byte-identical arrivals at the same step.
fn compile_load(sc: &Scenario, opts: &Opts) -> (Vec<Job>, BuildFn) {
    let cache = single_cache(sc);
    let profile = profiles_of(sc, opts).remove(0);
    let depth = match sc.axis("qdepth") {
        Some(AxisValues::Ints(v)) => v[0] as u32,
        _ => 8,
    };
    let mults = floats(sc, "load_mult");
    let base = opts.source_for(&profile);
    // One serial plan-time probe: the device's back-to-back service gap
    // for this mix (see `calibrated_service_gap_ns`). Runs before the
    // pool, so the grid stays thread-count invariant.
    let service_gap_ns = calibrated_service_gap_ns(&base);
    let mut jobs = Vec::new();
    for policy in policies_of(sc) {
        for (i, mult) in mults.iter().copied().enumerate() {
            let process = ArrivalProcess::Poisson {
                mean_interarrival_ns: ((service_gap_ns as f64 / mult) as u64).max(1),
            };
            jobs.push(Job {
                label: format!(
                    "{}|poisson|{mult}|{:.0}",
                    policy.name(),
                    process.offered_rate_per_s()
                ),
                cfg: SimConfig::paper(cache, policy)
                    .with_submit(SubmitMode::Queued { depth }),
                source: TraceSource::open_loop(base.clone(), process, 0x10AD_5EED + i as u64),
            });
        }
        let (burst_len, peak_to_mean) = LOAD_BURST;
        let process = ArrivalProcess::Bursty {
            mean_interarrival_ns: service_gap_ns,
            burst_len,
            peak_to_mean,
        };
        jobs.push(Job {
            label: format!("{}|bursty|1|{:.0}", policy.name(), process.offered_rate_per_s()),
            cfg: SimConfig::paper(cache, policy).with_submit(SubmitMode::Queued { depth }),
            source: TraceSource::open_loop(base.clone(), process, 0x10AD_B025),
        });
    }
    let section = section_name(sc);
    (jobs, Box::new(move |results| single_section(section, load_build(results))))
}

// ---------------------------------------------------------------------
// The generic grid kind
// ---------------------------------------------------------------------

type MetricFn = fn(&RunResult) -> String;

/// Metrics a grid scenario's `output.columns` can request.
pub const METRICS: [(&str, MetricFn); 25] = [
    ("requests", |r| r.metrics.requests.to_string()),
    ("hit_ratio", |r| f3(r.metrics.hit_ratio())),
    ("avg_resp_ms", |r| f3(r.metrics.avg_response_ms())),
    ("p50_ms", |r| f3(r.metrics.response_percentile_ms(0.50))),
    ("p95_ms", |r| f3(r.metrics.response_percentile_ms(0.95))),
    ("p99_ms", |r| f3(r.metrics.response_percentile_ms(0.99))),
    ("p999_ms", |r| f3(r.metrics.response_percentile_ms(0.999))),
    ("max_ms", |r| f3(r.metrics.response_percentile_ms(1.0))),
    ("hit_pct", |r| pct(r.metrics.hit_ratio())),
    ("flush_stalls", |r| r.metrics.flush_stalls.to_string()),
    ("stall_ms", |r| f2(r.metrics.flush_stall_ns as f64 / 1e6)),
    ("pages_per_eviction", |r| f2(r.metrics.avg_pages_per_eviction())),
    ("user_programs", |r| r.flash.user_programs.to_string()),
    ("gc_programs", |r| r.flash.gc_programs.to_string()),
    ("gc_runs", |r| r.ftl.gc_runs.to_string()),
    ("erases", |r| r.flash.erases.to_string()),
    ("write_amp", |r| f2(r.flash.write_amplification())),
    ("read_retries", |r| r.faults.read_retries.to_string()),
    ("uncorrectable", |r| r.faults.read_uncorrectable.to_string()),
    ("program_fails", |r| r.faults.program_failures.to_string()),
    ("erase_fails", |r| r.faults.erase_failures.to_string()),
    ("bad_blocks", |r| r.faults.retired_blocks.to_string()),
    ("remapped_pages", |r| r.faults.remapped_pages.to_string()),
    ("rejected_pages", |r| r.faults.rejected_write_pages.to_string()),
    ("health", |r| format!("{:?}", r.health)),
];

/// Compile the generic cartesian grid. Axes nest in declaration order,
/// except that `output.group_by` axes are hoisted outermost (in the given
/// order). Per grid point the modifier axes compose:
///
/// * `scale` multiplies the harness `--scale` (relative, default 1),
/// * `delta` swaps the policy for `Req-block` with that delta,
/// * `geometry = "pressured"` shrinks the flash array to ~115% of the
///   workload footprint and the write buffer to 64 pages (the pressured
///   golden device, which the fault sweep runs on),
/// * `qdepth` switches to queued submission at that depth,
/// * `fault_ppm` seeds read/program/erase faults at that rate,
/// * `load_mult` re-times arrivals open-loop at that multiple of the
///   calibrated service rate (Poisson; seeded by the multiplier's
///   position, calibrated once per unique trace x scale).
fn compile_grid(sc: &Scenario, opts: &Opts) -> (Vec<Job>, BuildFn) {
    // Axis evaluation order: group_by first, then declaration order.
    let group_by = sc.output.group_by.clone().unwrap_or_default();
    let mut order: Vec<usize> = group_by
        .iter()
        .map(|g| sc.axes.iter().position(|(n, _)| n == g).expect("validated group_by"))
        .collect();
    for (i, (name, _)) in sc.axes.iter().enumerate() {
        if !group_by.iter().any(|g| g == name) {
            order.push(i);
        }
    }
    let axes: Vec<(&str, &AxisValues)> =
        order.iter().map(|&i| (sc.axes[i].0.as_str(), &sc.axes[i].1)).collect();
    let lens: Vec<usize> = axes.iter().map(|(_, v)| v.len()).collect();
    let total: usize = lens.iter().product();
    let pos = |name: &str| axes.iter().position(|(n, _)| *n == name);

    // Calibration gaps for load_mult grids, one per (trace, scale) point.
    let mut gaps: HashMap<(usize, usize), u64> = HashMap::new();

    let mut jobs = Vec::with_capacity(total);
    // Axis display cells per grid point, for the build's column lookup.
    let mut point_cells: Vec<Vec<(String, String)>> = Vec::with_capacity(total);
    for flat in 0..total {
        let mut idx = vec![0usize; axes.len()];
        let mut rem = flat;
        for k in (0..axes.len()).rev() {
            idx[k] = rem % lens[k];
            rem /= lens[k];
        }
        let sval = |name: &str| -> Option<&str> {
            pos(name).map(|k| match axes[k].1 {
                AxisValues::Strs(v) => v[idx[k]].as_str(),
                _ => unreachable!(),
            })
        };
        let ival = |name: &str| -> Option<i64> {
            pos(name).map(|k| match axes[k].1 {
                AxisValues::Ints(v) => v[idx[k]],
                _ => unreachable!(),
            })
        };
        let fval = |name: &str| -> Option<f64> {
            pos(name).map(|k| match axes[k].1 {
                AxisValues::Floats(v) => v[idx[k]],
                _ => unreachable!(),
            })
        };

        let trace = sval("trace").expect("trace is required");
        let rel_scale = fval("scale").unwrap_or(1.0);
        let profile =
            profile_by_name(trace).expect("validated trace").scaled(opts.scale * rel_scale);
        let cache = ival("cache_mb").map(|mb| cache_from_mb(mb).expect("validated"));
        let policy = match ival("delta") {
            Some(d) => PolicyKind::ReqBlock(ReqBlockConfig::with_delta(d as u32)),
            None => policy_by_name(sval("policy").expect("policy is required"))
                .expect("validated policy"),
        };
        let mut cfg = SimConfig::paper(cache.unwrap_or(CacheSizeMb::Mb32), policy);
        if sval("geometry") == Some("pressured") {
            cfg.ssd = pressured_ssd(&profile);
            cfg.cache_pages = PRESSURED_CACHE_PAGES;
        }
        if let Some(ppm) = ival("fault_ppm") {
            cfg.fault = FaultConfig {
                read_fail_ppm: ppm as u32,
                program_fail_ppm: ppm as u32,
                erase_fail_ppm: ppm as u32,
                ..FaultConfig::default()
            };
        }
        if let Some(depth) = ival("qdepth") {
            cfg = cfg.with_submit(SubmitMode::Queued { depth: depth as u32 });
        }
        let source = match fval("load_mult") {
            Some(mult) => {
                let key = (
                    pos("trace").map(|k| idx[k]).unwrap_or(0),
                    pos("scale").map(|k| idx[k]).unwrap_or(0),
                );
                let gap = *gaps
                    .entry(key)
                    .or_insert_with(|| calibrated_service_gap_ns(&opts.source_for(&profile)));
                let process = ArrivalProcess::Poisson {
                    mean_interarrival_ns: ((gap as f64 / mult) as u64).max(1),
                };
                let seed_idx = pos("load_mult").map(|k| idx[k]).unwrap_or(0);
                TraceSource::open_loop(
                    opts.source_for(&profile),
                    process,
                    0x10AD_5EED + seed_idx as u64,
                )
            }
            None => opts.source_for(&profile),
        };

        let cells: Vec<(String, String)> = axes
            .iter()
            .enumerate()
            .map(|(k, (name, values))| (name.to_string(), values.display(idx[k])))
            .collect();
        let label = format!(
            "{}/{}",
            sc.name,
            cells.iter().map(|(_, v)| v.as_str()).collect::<Vec<_>>().join("/")
        );
        jobs.push(Job { label, cfg, source });
        point_cells.push(cells);
    }

    let columns: Vec<String> = sc.output.columns.clone().unwrap_or_else(|| {
        let mut cols: Vec<String> = axes.iter().map(|(n, _)| n.to_string()).collect();
        cols.push("hit_ratio".into());
        cols.push("avg_resp_ms".into());
        cols
    });
    let title = sc
        .output
        .title
        .clone()
        .unwrap_or_else(|| format!("Scenario {} - declarative grid", sc.name));
    let headers = sc.output.headers.clone().unwrap_or_else(|| columns.clone());
    let section = section_name(sc);
    let build: BuildFn = Box::new(move |results| {
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(title, &header_refs);
        for ((_, r), cells) in results.iter().zip(&point_cells) {
            let row = columns
                .iter()
                .map(|col| {
                    if let Some((_, v)) = cells.iter().find(|(n, _)| n == col) {
                        v.clone()
                    } else {
                        let (_, f) =
                            METRICS.iter().find(|(n, _)| n == col).expect("validated column");
                        f(r)
                    }
                })
                .collect();
            t.push_row(row);
        }
        single_section(section, t)
    });
    (jobs, build)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Opts {
        Opts {
            scale: 0.001,
            threads: 2,
            out_dir: std::env::temp_dir(),
            trace_dir: None,
        }
    }

    #[test]
    fn builtin_scenarios_parse_and_estimate() {
        for (name, _) in BUILTIN_SCENARIOS {
            let sc = builtin(name).unwrap();
            assert_eq!(sc.name, name);
            assert!(sc.estimated_jobs() > 0, "{name} estimates no jobs");
        }
        assert_eq!(builtin("comparison").unwrap().estimated_jobs(), 6 * 3 * 4);
        assert_eq!(builtin("load").unwrap().estimated_jobs(), 4 * 7);
    }

    #[test]
    fn plan_job_count_matches_estimate() {
        let opts = tiny_opts();
        for name in ["tails", "wear", "ablations", "faults", "qdepth", "smoke"] {
            let sc = builtin(name).unwrap();
            let plan = plan(&sc, &opts).unwrap();
            assert_eq!(plan.job_count(), sc.estimated_jobs(), "{name}");
        }
    }

    #[test]
    fn rejects_schema_violations() {
        let bad = |src: &str, needle: &str| {
            let e = Scenario::parse(src).unwrap_err();
            assert!(e.msg.contains(needle), "expected {needle:?} in {e}");
        };
        bad("[scenario]\nname = \"x\"\nkind = \"nope\"\n", "unknown kind");
        // Table names are not kinds: those tables are grid files.
        bad("[scenario]\nname = \"x\"\nkind = \"tails\"\n", "are grid scenarios");
        bad("[scenario]\nname = \"x\"\nkind = \"grid\"\n", "empty grid");
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\npolicy = []\n",
            "empty grid",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\nbogus = \"y\"\n",
            "unknown axis",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"load\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\nload_mult = 1\nfault_ppm = [1]\n",
            "not allowed for kind",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"nope\"\npolicy = \"LRU\"\n",
            "unknown trace",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\npolicy = \"lru\"\n",
            "unknown policy",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"A9: no such variant\"\n",
            "unknown policy",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"comparison\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = [\"LRU\", \"BPLRU\"]\ncache_mb = [16, 32, 64]\n",
            "Req-block",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\n[output]\ncolumns = [\"policy\", \"bogus_metric\"]\n",
            "neither a declared axis nor a metric",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\n[output]\nheaders = [\"Policy\"]\n",
            "needs output.columns",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\n[output]\ncolumns = [\"policy\", \"hit_ratio\"]\n\
             headers = [\"Policy\"]\n",
            "has 1 entries but output.columns has 2",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\ngeometry = \"pressured\"\ncache_mb = 32\n",
            "drop the cache_mb axis",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"load\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\nload_mult = 1\n[output]\nheaders = [\"Policy\"]\n",
            "grid scenarios only",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\ndelta = [1, 2]\n",
            "Req-block",
        );
        bad(
            "[scenario]\nname = \"x\"\nkind = \"load\"\n[axes]\n\
             trace = [\"ts_0\", \"proj_0\"]\npolicy = \"LRU\"\nload_mult = 1\n",
            "single value",
        );
        bad("[scenario]\nname = \"x y\"\nkind = \"grid\"\n", "invalid scenario name");
    }

    #[test]
    fn integer_literals_on_float_axes_are_promoted() {
        let sc = Scenario::parse(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
             policy = \"LRU\"\nscale = 1\nload_mult = [1, 2]\n",
        )
        .unwrap();
        assert_eq!(sc.axis("scale"), Some(&AxisValues::Floats(vec![1.0])));
        assert_eq!(sc.axis("load_mult"), Some(&AxisValues::Floats(vec![1.0, 2.0])));
        // Integer axes keep their integers.
        let sc = builtin("qdepth").unwrap();
        assert_eq!(sc.axis("qdepth"), Some(&AxisValues::Ints(vec![1, 2, 4, 8, 16, 32])));
    }

    #[test]
    fn ablation_variants_resolve_as_policies() {
        for (name, kind) in ablation_variants() {
            assert_eq!(policy_by_name(name), Some(kind), "{name}");
        }
    }

    #[test]
    fn headers_rename_grid_columns() {
        let src = "[scenario]\nname = \"h\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
                   policy = \"LRU\"\n[output]\ncolumns = [\"policy\", \"hit_ratio\"]\n\
                   headers = [\"Policy\", \"Hit ratio\"]\n";
        let t = run(&Scenario::parse(src).unwrap(), &tiny_opts()).unwrap().into_single_table();
        assert_eq!(t.columns, ["Policy", "Hit ratio"]);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][0], "LRU");
    }

    #[test]
    fn grid_smoke_runs_and_renders_requested_columns() {
        let opts = tiny_opts();
        let sc = builtin("smoke").unwrap();
        let outcome = run(&sc, &opts).unwrap();
        assert_eq!(outcome.sections.len(), 1);
        let digests = outcome.digests();
        let t = outcome.into_single_table();
        assert_eq!(t.rows.len(), sc.estimated_jobs());
        assert_eq!(digests.len(), 1);
        assert_eq!(digests[0].0, "smoke");
    }

    #[test]
    fn grid_group_by_reorders_nesting() {
        let opts = tiny_opts();
        let src = "[scenario]\nname = \"g\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\n\
                   policy = [\"LRU\", \"Req-block\"]\nqdepth = [1, 2]\n\
                   [output]\ngroup_by = [\"qdepth\"]\ncolumns = [\"qdepth\", \"policy\"]\n";
        let sc = Scenario::parse(src).unwrap();
        let outcome = run(&sc, &opts).unwrap();
        let t = outcome.into_single_table();
        // qdepth hoisted outermost: 1/LRU, 1/Req-block, 2/LRU, 2/Req-block.
        let rows: Vec<(String, String)> =
            t.rows.iter().map(|r| (r[0].clone(), r[1].clone())).collect();
        assert_eq!(
            rows,
            vec![
                ("1".into(), "LRU".into()),
                ("1".into(), "Req-block".into()),
                ("2".into(), "LRU".into()),
                ("2".into(), "Req-block".into()),
            ]
        );
    }

    #[test]
    fn set_axis_revalidates() {
        let mut sc = builtin("qdepth").unwrap();
        sc.set_axis("qdepth", AxisValues::Ints(vec![1, 3])).unwrap();
        assert_eq!(sc.estimated_jobs(), 4 * 2);
        let e = sc.set_axis("qdepth", AxisValues::Ints(vec![0])).unwrap_err();
        assert!(e.msg.contains("out of range"), "{e}");
    }

    mod never_panics {
        use crate::scenario::{toml, Scenario};
        use proptest::collection::vec;
        use proptest::prelude::*;

        fn token() -> impl Strategy<Value = &'static str> {
            prop_oneof![
                Just(","),
                Just("["),
                Just("]"),
                Just("#"),
                Just("="),
                Just("\""),
                Just("\n"),
                Just("é"),
                Just("0"),
                Just("7"),
                Just("18446744073709551615"),
                Just("Read"),
                Just("Write"),
                Just("[s]"),
                Just("x = "),
            ]
        }

        proptest! {
            // The panicking shapes (a malformed value whose error snippet
            // would end inside a multi-byte char) are rare in token soup,
            // and a case costs microseconds, so run many.
            #![proptest_config(ProptestConfig::with_cases(8192))]

            /// Any token soup parses or fails with a line-numbered error.
            #[test]
            fn toml_and_scenario_parse_never_panic(tokens in vec(token(), 0..40)) {
                let src = tokens.concat();
                let _ = toml::parse(&src);
                let _ = Scenario::parse(&src);
            }
        }
    }
}
