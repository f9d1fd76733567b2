//! `ij` — the command-line interface of the Inside Job analyzer.
//!
//! ```text
//! ij analyze <chart-dir> [--values <file>] [--static-only] [--dot <out.dot>]
//! ij render  <chart-dir> [--values <file>]
//! ij disclose <chart-dir> [--values <file>]
//! ij census  [--org <name>] [--seed <n>] [--threads <n>] [--shards <k>] [--static-only]
//!            [--progress] [--timings] [--synthetic <n>] [--profile <name>] [--mix <rule=rate,...>]
//!            [--rule-pack <file>] [--without-rule <name>]...
//! ij corpus  --describe [--synthetic <n>] [--profile <name>] [--mix <rule=rate,...>] [--seed <n>]
//! ij rules   [--rule-pack <file>] [--explain <name>]
//! ij serve   [--clusters <n>] [--mutations <n>] [--seed <n>] [--profile <name>] [--verify]
//! ij conform <fixtures-dir> [--json <file>] [--report <file>] [--baseline <file>]
//! ij help
//! ```
//!
//! * `analyze` — render the chart, install it into a fresh simulated
//!   cluster, run the hybrid (or static-only) analyzer, print findings with
//!   severities and mitigations; optionally write the effective-connectivity
//!   DOT graph.
//! * `render` — print the rendered manifests.
//! * `disclose` — produce a responsible-disclosure markdown report for the
//!   chart's findings.
//! * `census` — run the evaluation pipeline over the built-in synthetic
//!   corpus (optionally one dataset) and print the Table-2 style breakdown;
//!   `--threads` parallelizes the per-application analyses without changing
//!   a byte of the output, `--progress` streams completion ticks to stderr,
//!   and `--timings` prints the per-phase wall-time breakdown (build /
//!   render / install / probe / analyze) to stderr after the table,
//!   aggregated across all shards and worker threads. With
//!   `--synthetic <n>` the census instead streams `n` procedurally
//!   generated applications through the pipeline (`--profile` picks the
//!   scenario, `--mix` overrides per-rule injection rates).
//!   `--rule-pack` loads a
//!   rule-language pack (registering its rules, shadowing natives of the
//!   same name, and applying its `disable` directives);
//!   `--without-rule <name>` (repeatable) disables one rule by name —
//!   unknown names are usage errors that list the known rules.
//! * `corpus` — describe a population without analyzing it: the built-in
//!   Table-2 corpus by default, or a synthetic population under
//!   `--synthetic`/`--profile`/`--mix`/`--seed`.
//! * `rules` — list the rule registry (name, classes, evidence scope,
//!   native/pack origin, enabled) after optionally applying `--rule-pack`;
//!   `--explain <name>` prints one rule's details, including the pack
//!   expression and message template for pack rules.
//! * `serve` — run the continuous-audit engine: a deterministic churn
//!   workload over one or more tenant clusters, each audited incrementally
//!   after every mutation; `--verify` re-checks each tick against the
//!   full-recompute oracle and fails loudly on any divergence.
//! * `conform` — run the differential conformance harness over a directory
//!   of on-disk charts: every chart is pushed through both render
//!   pipelines, the value-tree render, the policy-index/naive-engine
//!   oracle pair, and the finding interner, and every disagreement or
//!   unsupported feature is reported (never silently skipped). `--json`
//!   and `--report` write the machine-readable results and the ranked
//!   markdown loss report; `--baseline` compares the fresh JSON
//!   byte-for-byte against a committed baseline so CI can gate on "no
//!   unexplained divergence".
//! * `help` — print the full flag reference.
//!
//! Failures map to distinct exit codes so scripts can tell them apart:
//! `2` usage, `3` chart render, `4` cluster install, `1` anything else.
//!
//! Unknown container images behave exactly as declared (no runtime delta),
//! so on-disk charts are analyzed for their *structural* misconfigurations
//! (M4–M7 and service references); pair the library API with a
//! `BehaviorRegistry` to model runtime deltas (M1–M3) for known images.

use inside_job::chart::{Chart, Release};
use inside_job::cluster::{Cluster, ClusterConfig};
use inside_job::core::{
    chart_defines_network_policies, disclosure_report, Analyzer, AppReport, Census, MisconfigId,
    RulePack, RuleRegistry, UnknownRule,
};
use inside_job::datasets::{
    corpus, describe_builtin, run_conformance, table2_rows, CensusError, CensusPipeline,
    ChartStatus, CorpusGenerator, CorpusProfile, Org, PhaseTimings,
};
use inside_job::probe::{connectivity_dot, HostBaseline, RuntimeAnalyzer};
use inside_job::serve::{serve, ServeError, ServeOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// Exit code for malformed invocations.
const EXIT_USAGE: u8 = 2;
/// Exit code when a chart fails to render.
const EXIT_RENDER: u8 = 3;
/// Exit code when the simulated cluster rejects an install.
const EXIT_INSTALL: u8 = 4;

/// A CLI failure carrying its exit code; no user input can panic the
/// binary — every error path flows through here.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage() -> Self {
        CliError {
            code: EXIT_USAGE,
            message: String::new(),
        }
    }

    fn other(message: impl Into<String>) -> Self {
        CliError {
            code: 1,
            message: message.into(),
        }
    }

    fn render(message: impl Into<String>) -> Self {
        CliError {
            code: EXIT_RENDER,
            message: message.into(),
        }
    }
}

impl From<CensusError> for CliError {
    fn from(err: CensusError) -> Self {
        let code = match &err {
            CensusError::Render { .. } => EXIT_RENDER,
            CensusError::Install { .. } => EXIT_INSTALL,
            CensusError::Probe { .. } => 1,
        };
        CliError {
            code,
            message: err.to_string(),
        }
    }
}

struct ChartArgs {
    command: String,
    chart_dir: PathBuf,
    values: Option<PathBuf>,
    static_only: bool,
    dot: Option<PathBuf>,
}

struct CensusArgs {
    org: Option<Org>,
    seed: u64,
    /// True when `--seed` was given explicitly (the default is 42, so the
    /// value alone cannot tell).
    seed_set: bool,
    threads: usize,
    shards: usize,
    static_only: bool,
    progress: bool,
    timings: bool,
    synthetic: Option<usize>,
    profile: Option<String>,
    mix: Option<String>,
    describe: bool,
    rule_pack: Option<PathBuf>,
    without_rules: Vec<String>,
}

struct RulesArgs {
    rule_pack: Option<PathBuf>,
    explain: Option<String>,
}

struct ConformArgs {
    fixtures_dir: PathBuf,
    json: Option<PathBuf>,
    report: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

/// The one-screen flag reference printed by `ij help` (and kept in sync
/// with the CLI contract section of the README by `tests/cli.rs`).
const HELP: &str = "\
ij — hybrid analyzer for Kubernetes network misconfigurations

usage:
  ij analyze  <chart-dir> [--values <file>] [--static-only] [--dot <out.dot>]
  ij render   <chart-dir> [--values <file>]
  ij disclose <chart-dir> [--values <file>]
  ij census   [--org <name>] [--seed <n>] [--threads <n>] [--shards <k>]
              [--static-only] [--progress] [--timings]
              [--synthetic <n>] [--profile <name>] [--mix <rule=rate,...>]
              [--rule-pack <file>] [--without-rule <name>]...
  ij corpus   --describe [--synthetic <n>] [--profile <name>]
              [--mix <rule=rate,...>] [--seed <n>]
  ij rules    [--rule-pack <file>] [--explain <name>]
  ij serve    [--clusters <n>] [--mutations <n>] [--seed <n>]
              [--profile <name>] [--verify]
  ij conform  <fixtures-dir> [--json <file>] [--report <file>]
              [--baseline <file>]
  ij help

flags:
  --values <file>        values overlay applied to the release
  --static-only          disable the runtime rules (static analysis only)
  --dot <out.dot>        write the effective-connectivity DOT graph
  --org <name>           restrict the census to one built-in dataset
  --seed <n>             base seed (default 42)
  --threads <n>          analysis workers; output is identical for every n
  --shards <k>           partitions the census accumulates into; output is
                         identical for every k
  --progress             stream per-application completion ticks to stderr
  --timings              print per-phase wall time to stderr after the run
  --synthetic <n>        analyze n procedurally generated applications
  --profile <name>       synthetic scenario: baseline, mesh-heavy,
                         monolith-heavy, pipeline-heavy, legacy, policy-mature
  --mix <rule=rate,...>  override per-rule injection rates, e.g. m1=0.2,m7=0.05
  --describe             print the population summary instead of analyzing
  --rule-pack <file>     load a rule-language pack: its rules register
                         (shadowing natives of the same name) and its
                         disable directives apply
  --without-rule <name>  disable one rule by name (repeatable); unknown
                         names are usage errors listing the known rules
  --explain <name>       print one rule's details (pack rules include their
                         expression and message template)
  --clusters <n>         tenant clusters driven by the serve churn workload
  --mutations <n>        total churn mutations applied across all tenants
  --verify               check every incremental tick against the
                         full-recompute oracle (fails on divergence)
  --json <file>          write the machine-readable conformance results
  --report <file>        write the ranked markdown conformance loss report
  --baseline <file>      compare the fresh conformance JSON byte-for-byte
                         against a committed baseline (exit 0 only when no
                         check diverges and the bytes match)

exit codes:
  0 success, 2 usage, 3 chart render failure, 4 cluster install failure,
  1 any other failure
";

/// Prints the `usage:` block of [`HELP`] to stderr: the synopsis a usage
/// error answers with.
fn usage() -> ExitCode {
    let block = HELP
        .split("\n\n")
        .find(|block| block.starts_with("usage:"))
        .expect("HELP has a usage block");
    eprintln!("{block}");
    ExitCode::from(EXIT_USAGE)
}

fn parse_chart_args(command: String, mut argv: std::env::Args) -> Option<ChartArgs> {
    let chart_dir = PathBuf::from(argv.next()?);
    let mut args = ChartArgs {
        command,
        chart_dir,
        values: None,
        static_only: false,
        dot: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--values" => args.values = Some(PathBuf::from(argv.next()?)),
            "--static-only" => args.static_only = true,
            "--dot" => args.dot = Some(PathBuf::from(argv.next()?)),
            _ => return None,
        }
    }
    Some(args)
}

fn parse_census_args(
    mut argv: std::env::Args,
    allow_describe: bool,
) -> Result<CensusArgs, CliError> {
    let mut args = CensusArgs {
        org: None,
        seed: 42,
        seed_set: false,
        threads: 1,
        shards: 1,
        static_only: false,
        progress: false,
        timings: false,
        synthetic: None,
        profile: None,
        mix: None,
        describe: false,
        rule_pack: None,
        without_rules: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--org" => {
                let name = argv.next().ok_or_else(CliError::usage)?;
                let org = Org::ALL
                    .into_iter()
                    .find(|o| o.as_str().eq_ignore_ascii_case(&name));
                args.org = Some(org.ok_or_else(|| {
                    let known: Vec<&str> = Org::ALL.iter().map(|o| o.as_str()).collect();
                    CliError::other(format!(
                        "unknown dataset `{name}`; expected one of: {}",
                        known.join(", ")
                    ))
                })?);
            }
            "--seed" => {
                let raw = argv.next().ok_or_else(CliError::usage)?;
                args.seed = raw
                    .parse()
                    .map_err(|_| CliError::other(format!("invalid --seed `{raw}`")))?;
                args.seed_set = true;
            }
            "--threads" => {
                let raw = argv.next().ok_or_else(CliError::usage)?;
                args.threads = raw
                    .parse()
                    .map_err(|_| CliError::other(format!("invalid --threads `{raw}`")))?;
            }
            "--shards" => {
                let raw = argv.next().ok_or_else(CliError::usage)?;
                args.shards = raw
                    .parse()
                    .map_err(|_| CliError::other(format!("invalid --shards `{raw}`")))?;
            }
            "--static-only" => args.static_only = true,
            "--progress" => args.progress = true,
            "--timings" => args.timings = true,
            "--synthetic" => {
                let raw = argv.next().ok_or_else(CliError::usage)?;
                args.synthetic = Some(
                    raw.parse()
                        .map_err(|_| CliError::other(format!("invalid --synthetic `{raw}`")))?,
                );
            }
            "--profile" => args.profile = Some(argv.next().ok_or_else(CliError::usage)?),
            "--mix" => args.mix = Some(argv.next().ok_or_else(CliError::usage)?),
            "--describe" if allow_describe => args.describe = true,
            "--rule-pack" => {
                args.rule_pack = Some(PathBuf::from(argv.next().ok_or_else(CliError::usage)?));
            }
            "--without-rule" => {
                args.without_rules
                    .push(argv.next().ok_or_else(CliError::usage)?);
            }
            _ => return Err(CliError::usage()),
        }
    }
    Ok(args)
}

fn parse_conform_args(mut argv: std::env::Args) -> Result<ConformArgs, CliError> {
    let fixtures_dir = PathBuf::from(argv.next().ok_or_else(CliError::usage)?);
    let mut args = ConformArgs {
        fixtures_dir,
        json: None,
        report: None,
        baseline: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--json" => {
                args.json = Some(PathBuf::from(argv.next().ok_or_else(CliError::usage)?));
            }
            "--report" => {
                args.report = Some(PathBuf::from(argv.next().ok_or_else(CliError::usage)?));
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(argv.next().ok_or_else(CliError::usage)?));
            }
            _ => return Err(CliError::usage()),
        }
    }
    Ok(args)
}

/// `ij conform`: run the differential harness over every chart in the
/// fixtures directory, print the per-chart summary, optionally write the
/// JSON/markdown artifacts, and exit non-zero on any loss. With
/// `--baseline`, success instead means "no divergence *and* the fresh JSON
/// equals the committed baseline byte-for-byte" — an unsupported feature
/// recorded in the baseline is explained, a new one is a regression.
fn run_conform_command(args: ConformArgs) -> Result<(), CliError> {
    let report = run_conformance(&args.fixtures_dir).map_err(|e| CliError::other(e.to_string()))?;
    for c in &report.charts {
        match &c.status {
            ChartStatus::Conformant => println!(
                "{:<18} conformant   {} object(s), {} finding(s), {} verdict(s)",
                c.chart, c.objects, c.findings, c.verdicts
            ),
            ChartStatus::Unsupported { feature } => {
                println!(
                    "{:<18} unsupported  {}",
                    c.chart,
                    feature.lines().next().unwrap_or("")
                );
            }
            ChartStatus::Divergent { check, detail } => {
                println!(
                    "{:<18} DIVERGENT    {check}: {}",
                    c.chart,
                    detail.lines().next().unwrap_or("")
                );
            }
        }
    }
    println!(
        "{} chart(s): {} conformant, {} unsupported, {} divergent",
        report.charts.len(),
        report.conformant(),
        report.unsupported(),
        report.divergent()
    );
    let json = report.to_json();
    if let Some(path) = &args.json {
        std::fs::write(path, &json)
            .map_err(|e| CliError::other(format!("{}: {e}", path.display())))?;
    }
    if let Some(path) = &args.report {
        std::fs::write(path, report.to_markdown())
            .map_err(|e| CliError::other(format!("{}: {e}", path.display())))?;
    }
    match &args.baseline {
        Some(path) => {
            let expected = std::fs::read_to_string(path)
                .map_err(|e| CliError::other(format!("{}: {e}", path.display())))?;
            if report.divergent() > 0 {
                return Err(CliError::other(format!(
                    "{} divergent chart(s) — every divergence is a bug",
                    report.divergent()
                )));
            }
            if json != expected {
                return Err(CliError::other(format!(
                    "conformance results drifted from {} — regenerate it with \
                     --json and review the diff",
                    path.display()
                )));
            }
            Ok(())
        }
        None if report.all_conformant() => Ok(()),
        None => Err(CliError::other(format!(
            "{} unsupported and {} divergent chart(s)",
            report.unsupported(),
            report.divergent()
        ))),
    }
}

fn parse_rules_args(mut argv: std::env::Args) -> Result<RulesArgs, CliError> {
    let mut args = RulesArgs {
        rule_pack: None,
        explain: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--rule-pack" => {
                args.rule_pack = Some(PathBuf::from(argv.next().ok_or_else(CliError::usage)?));
            }
            "--explain" => args.explain = Some(argv.next().ok_or_else(CliError::usage)?),
            _ => return Err(CliError::usage()),
        }
    }
    Ok(args)
}

/// An [`UnknownRule`] is a usage error: the invocation named a rule that
/// does not exist, and the message already lists the known ones.
fn unknown_rule(err: UnknownRule) -> CliError {
    CliError {
        code: EXIT_USAGE,
        message: err.to_string(),
    }
}

/// Reads and compiles a rule pack. Load failures (lex, parse, type-check,
/// structure) exit with the usage code and render the pack-file position —
/// `path: line L, column C: message`.
fn load_rule_pack(path: &Path) -> Result<RulePack, CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::other(format!("{}: {e}", path.display())))?;
    RulePack::from_str(&src).map_err(|err| CliError {
        code: EXIT_USAGE,
        message: format!("{}: {err}", path.display()),
    })
}

/// Builds the standard registry, applies `--rule-pack`, then the
/// `--without-rule` disables — shared by `census` and `rules` so both
/// subcommands see the exact same rule set for the same flags.
fn assemble_registry(
    rule_pack: Option<&Path>,
    without_rules: &[String],
) -> Result<RuleRegistry, CliError> {
    let mut registry = RuleRegistry::standard();
    if let Some(path) = rule_pack {
        let pack = load_rule_pack(path)?;
        pack.register_into(&mut registry).map_err(unknown_rule)?;
    }
    for name in without_rules {
        registry.try_disable(name).map_err(unknown_rule)?;
    }
    Ok(registry)
}

fn run_rules_command(args: RulesArgs) -> Result<(), CliError> {
    let registry = assemble_registry(args.rule_pack.as_deref(), &[])?;
    if let Some(name) = &args.explain {
        let entry = registry.try_get(name).map_err(unknown_rule)?;
        let classes: Vec<&str> = entry.classes().iter().map(|c| c.as_str()).collect();
        println!("rule {}", entry.name());
        println!("  classes:  {}", classes.join(","));
        println!("  scope:    {}", entry.scope().as_str());
        println!("  origin:   {}", entry.origin().as_str());
        println!(
            "  enabled:  {}",
            if entry.is_enabled() { "yes" } else { "no" }
        );
        match entry.pack_rule() {
            Some(rule) => {
                println!("  select:   {}", rule.select().as_str());
                println!("  when:     {}", rule.expression());
                println!("  message:  {}", rule.message_template());
            }
            None => {
                println!(
                    "  body:     native Rust (crates/core/src/rules.rs); load a pack \
                     with a rule of the same name to shadow it"
                );
            }
        }
        return Ok(());
    }
    println!(
        "{:<8} {:<20} {:<8} {:<7} ENABLED",
        "NAME", "CLASSES", "SCOPE", "ORIGIN"
    );
    for entry in registry.entries() {
        let classes: Vec<&str> = entry.classes().iter().map(|c| c.as_str()).collect();
        println!(
            "{:<8} {:<20} {:<8} {:<7} {}",
            entry.name(),
            classes.join(","),
            entry.scope().as_str(),
            entry.origin().as_str(),
            if entry.is_enabled() { "yes" } else { "no" }
        );
    }
    Ok(())
}

fn parse_serve_args(mut argv: std::env::Args) -> Result<ServeOptions, CliError> {
    let mut options = ServeOptions::default();
    let parse_num = |flag: &str, raw: String| {
        raw.parse::<usize>()
            .map_err(|_| CliError::other(format!("invalid {flag} `{raw}`")))
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--clusters" => {
                let raw = argv.next().ok_or_else(CliError::usage)?;
                options.clusters = parse_num("--clusters", raw)?;
            }
            "--mutations" => {
                let raw = argv.next().ok_or_else(CliError::usage)?;
                options.mutations = parse_num("--mutations", raw)?;
            }
            "--seed" => {
                let raw = argv.next().ok_or_else(CliError::usage)?;
                options.seed = raw
                    .parse()
                    .map_err(|_| CliError::other(format!("invalid --seed `{raw}`")))?;
            }
            "--profile" => options.profile = argv.next().ok_or_else(CliError::usage)?,
            "--verify" => options.verify = true,
            _ => return Err(CliError::usage()),
        }
    }
    Ok(options)
}

fn run_serve_command(options: ServeOptions) -> Result<(), CliError> {
    let report = serve(&options).map_err(|err| {
        let code = match &err {
            ServeError::Apply { source, .. } => match source {
                CensusError::Render { .. } => EXIT_RENDER,
                CensusError::Install { .. } => EXIT_INSTALL,
                CensusError::Probe { .. } => 1,
            },
            _ => 1,
        };
        CliError {
            code,
            message: err.to_string(),
        }
    })?;
    print!("{}", report.render());
    Ok(())
}

/// Resolves the synthetic-population flags into a generator. `--profile`
/// defaults to `baseline`; `--mix` overrides ride on the profile's rates.
fn build_generator(args: &CensusArgs, apps: usize) -> Result<CorpusGenerator, CliError> {
    let name = args.profile.as_deref().unwrap_or("baseline");
    let mut profile = CorpusProfile::named(name)
        .ok_or_else(|| {
            CliError::other(format!(
                "unknown profile `{name}`; expected one of: {}",
                CorpusProfile::NAMES.join(", ")
            ))
        })?
        .with_apps(apps)
        .with_seed(args.seed);
    if let Some(mix_spec) = &args.mix {
        let mut mix = profile.mix().clone();
        mix.apply_overrides(mix_spec)
            .map_err(|e| CliError::other(format!("invalid --mix: {e}")))?;
        profile = profile.with_mix(mix);
    }
    Ok(CorpusGenerator::new(profile))
}

fn load_release(args: &ChartArgs, name: &str) -> Result<Release, CliError> {
    let mut release = Release::new(name, "default");
    if let Some(values_path) = &args.values {
        let src = std::fs::read_to_string(values_path)
            .map_err(|e| CliError::other(format!("{}: {e}", values_path.display())))?;
        release = release
            .with_values_yaml(&src)
            .map_err(|e| CliError::render(e.to_string()))?;
    }
    Ok(release)
}

fn run_census_command(args: CensusArgs) -> Result<(), CliError> {
    if args.synthetic.is_some() && args.org.is_some() {
        return Err(CliError::other(
            "--org selects a built-in dataset and cannot be combined with --synthetic",
        ));
    }
    if args.synthetic.is_none() && (args.profile.is_some() || args.mix.is_some()) {
        return Err(CliError::other(
            "--profile/--mix configure the synthetic generator; pass --synthetic <n>",
        ));
    }
    let mut analyzer = if args.static_only {
        Analyzer::static_only()
    } else {
        Analyzer::hybrid()
    };
    if args.rule_pack.is_some() || !args.without_rules.is_empty() {
        analyzer.registry = assemble_registry(args.rule_pack.as_deref(), &args.without_rules)?;
    }
    let mut builder = CensusPipeline::builder()
        .seed(args.seed)
        .threads(args.threads)
        .shards(args.shards)
        .analyzer(analyzer);
    if args.progress {
        builder = builder.observer(|p| eprintln!("[{}/{}] {}", p.completed, p.total, p.app));
    }
    let timings = args.timings.then(Arc::<PhaseTimings>::default);
    if let Some(t) = &timings {
        builder = builder.timings(Arc::clone(t));
    }
    let pipeline = builder.build();
    match args.synthetic {
        Some(apps) => {
            // Streamed synthetic populations stay in the interned compact
            // form end to end: the table renders from the flat census
            // without ever materializing the owned one.
            let census = pipeline.run_generated_compact(&build_generator(&args, apps)?)?;
            print!(
                "{}",
                census_table_from(
                    &census.table2(),
                    census.total_misconfigurations(),
                    census.apps.len()
                )
            );
        }
        None => {
            let specs: Vec<_> = match args.org {
                Some(org) => corpus().into_iter().filter(|a| a.org == org).collect(),
                None => corpus(),
            };
            let census = pipeline.run(&specs)?;
            print!("{}", census_table(&census));
        }
    }
    // Timings go to stderr so the census table on stdout stays
    // byte-identical with and without the flag.
    if let Some(t) = &timings {
        let report = t.snapshot();
        eprintln!(
            "timings: build {:.3?}  render {:.3?}  install {:.3?}  probe {:.3?}  analyze {:.3?}  (phase total {:.3?})",
            report.build,
            report.render,
            report.install,
            report.probe,
            report.analyze,
            report.total()
        );
    }
    Ok(())
}

/// `ij corpus --describe`: print a population summary without running any
/// analysis — the built-in Table-2 corpus by default, or a synthetic
/// population when `--synthetic` (and friends) are given.
fn run_corpus_command(args: CensusArgs) -> Result<(), CliError> {
    if !args.describe {
        return Err(CliError::usage());
    }
    // The parser is shared with `census`; flags that only make sense when
    // analyzing must not be silently ignored here.
    if args.org.is_some()
        || args.threads != 1
        || args.shards != 1
        || args.static_only
        || args.progress
        || args.timings
    {
        return Err(CliError::usage());
    }
    if args.rule_pack.is_some() || !args.without_rules.is_empty() {
        return Err(CliError::usage());
    }
    let summary = match args.synthetic {
        Some(apps) => build_generator(&args, apps)?.describe(),
        None => {
            if args.profile.is_some() || args.mix.is_some() || args.seed_set {
                return Err(CliError::other(
                    "--profile/--mix/--seed configure the synthetic generator; \
                     pass --synthetic <n>",
                ));
            }
            describe_builtin()
        }
    };
    print!("{}", summary.render());
    Ok(())
}

/// Renders the census as the Table-2 style breakdown.
fn census_table(census: &Census) -> String {
    census_table_from(
        &census.table2(),
        census.total_misconfigurations(),
        census.apps.len(),
    )
}

/// The Table-2 renderer over pre-aggregated rows — shared by the owned and
/// the compact (interned) census paths, which therefore print
/// byte-identically by construction.
fn census_table_from(
    rows: &[ij_core::DatasetRow],
    misconfigurations: usize,
    apps: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<14} {:>9}", "Dataset", "Affected"));
    for id in MisconfigId::ALL {
        out.push_str(&format!(" {:>4}", id.as_str()));
    }
    out.push('\n');
    out.push_str(&table2_rows(rows));
    out.push_str(&format!(
        "{misconfigurations} misconfiguration(s) across {apps} application(s)\n"
    ));
    out
}

fn run_chart_command(args: ChartArgs) -> Result<(), CliError> {
    let chart =
        Chart::from_dir(Path::new(&args.chart_dir)).map_err(|e| CliError::other(e.to_string()))?;
    let release = load_release(&args, &chart.name.clone())?;
    let rendered = chart
        .compile()
        .and_then(|compiled| compiled.render(&release))
        .map_err(|e| CliError::render(format!("chart {} failed to render: {e}", chart.name)))?;

    match args.command.as_str() {
        "render" => {
            for obj in &rendered.objects {
                println!("---");
                print!("{}", obj.to_manifest());
            }
            Ok(())
        }
        "analyze" | "disclose" => {
            let mut cluster = Cluster::new(ClusterConfig::default());
            let baseline = HostBaseline::capture(&cluster);
            cluster.install(&rendered).map_err(|e| CliError {
                code: EXIT_INSTALL,
                message: format!("chart {} failed to install: {e}", chart.name),
            })?;
            let runtime = RuntimeAnalyzer::default().analyze(&mut cluster, &baseline);
            let analyzer = if args.static_only {
                Analyzer::static_only()
            } else {
                Analyzer::hybrid()
            };
            let findings = analyzer.analyze_app(
                &chart.name,
                &rendered.objects,
                &cluster,
                Some(&runtime),
                chart_defines_network_policies(&chart),
            );

            if args.command == "disclose" {
                let census = Census {
                    apps: vec![AppReport {
                        app: chart.name.clone(),
                        dataset: chart.name.clone(),
                        version: chart.version.clone(),
                        findings: findings.clone(),
                    }],
                };
                print!("{}", disclosure_report(&census, &chart.name));
            } else {
                println!(
                    "chart `{}` {} — {} finding(s)",
                    chart.name,
                    chart.version,
                    findings.len()
                );
                for f in &findings {
                    println!(
                        "\n[{}] {:?} — {}",
                        f.id,
                        f.id.severity(),
                        f.id.description()
                    );
                    println!("  object: {}", f.object);
                    println!("  detail: {}", f.detail);
                    println!("  fix:    {}", f.id.mitigation());
                }
            }

            if let Some(dot_path) = &args.dot {
                let dot = connectivity_dot(&cluster);
                std::fs::write(dot_path, dot)
                    .map_err(|e| CliError::other(format!("{}: {e}", dot_path.display())))?;
                eprintln!("wrote connectivity graph to {}", dot_path.display());
            }
            Ok(())
        }
        other => Err(CliError::other(format!("unknown command `{other}`"))),
    }
}

fn run() -> Result<(), CliError> {
    let mut argv = std::env::args();
    let _ = argv.next(); // program name
    let command = argv.next().ok_or_else(CliError::usage)?;
    match command.as_str() {
        "census" => run_census_command(parse_census_args(argv, false)?),
        "corpus" => run_corpus_command(parse_census_args(argv, true)?),
        "rules" => run_rules_command(parse_rules_args(argv)?),
        "serve" => run_serve_command(parse_serve_args(argv)?),
        "conform" => run_conform_command(parse_conform_args(argv)?),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        "analyze" | "render" | "disclose" => {
            let args = parse_chart_args(command, argv).ok_or_else(CliError::usage)?;
            run_chart_command(args)
        }
        other => Err(CliError::other(format!("unknown command `{other}`"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            if err.code == EXIT_USAGE && err.message.is_empty() {
                return usage();
            }
            eprintln!("error: {}", err.message);
            ExitCode::from(err.code)
        }
    }
}
