//! End-to-end tests of the `ij` CLI binary against charts on disk.

use ij_chart::{Chart, Release};
use ij_datasets::{run_conformance, ChartStatus};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn write(path: &Path, content: &str) {
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, content).expect("write");
}

fn demo_chart_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ij-cli-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    write(
        &dir.join("Chart.yaml"),
        "name: cli-demo\nversion: 0.9.0\ndescription: CLI test chart\n",
    );
    write(&dir.join("values.yaml"), "replicas: 1\n");
    write(
        &dir.join("templates/app.yaml"),
        "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-web
spec:
  replicas: {{ .Values.replicas }}
  selector:
    matchLabels:
      app: web
  template:
    metadata:
      labels:
        app: web
    spec:
      hostNetwork: true
      containers:
        - name: web
          image: acme/web
          ports:
            - containerPort: 8080
---
apiVersion: v1
kind: Service
metadata:
  name: {{ .Release.Name }}-web
spec:
  selector:
    app: web
  ports:
    - port: 80
      targetPort: 9999
",
    );
    dir
}

fn ij(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ij"))
        .args(args)
        .output()
        .expect("spawn ij")
}

#[test]
fn analyze_reports_structural_findings() {
    let dir = demo_chart_dir("analyze");
    let out = ij(&["analyze", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 finding(s)"), "{stdout}");
    assert!(stdout.contains("[M5B]"), "{stdout}");
    assert!(stdout.contains("[M6]"), "{stdout}");
    assert!(stdout.contains("[M7]"), "{stdout}");
    assert!(stdout.contains("fix:"), "{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn render_prints_manifests() {
    let dir = demo_chart_dir("render");
    let out = ij(&["render", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kind: Deployment"));
    assert!(stdout.contains("kind: Service"));
    assert!(stdout.contains("name: cli-demo-web"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn disclose_produces_markdown_report() {
    let dir = demo_chart_dir("disclose");
    let out = ij(&["disclose", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# Security disclosure"));
    assert!(stdout.contains("Threat model"));
    assert!(stdout.contains("Questionnaire"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dot_flag_writes_connectivity_graph() {
    let dir = demo_chart_dir("dot");
    let dot_path = dir.join("out.dot");
    let out = ij(&[
        "analyze",
        dir.to_str().unwrap(),
        "--dot",
        dot_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let dot = fs::read_to_string(&dot_path).expect("dot written");
    assert!(dot.starts_with("digraph"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn values_override_changes_rendering() {
    let dir = demo_chart_dir("values");
    let values = dir.join("override.yaml");
    fs::write(&values, "replicas: 4\n").unwrap();
    let out = ij(&[
        "render",
        dir.to_str().unwrap(),
        "--values",
        values.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replicas: 4"), "{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = ij(&["bogus-command"]);
    assert!(!out.status.success());
    let out = ij(&[]);
    assert!(!out.status.success());
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing command is a usage error"
    );
}

#[test]
fn census_subcommand_prints_dataset_breakdown() {
    let out = ij(&["census", "--org", "CNCF", "--threads", "4", "--progress"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Dataset"), "{stdout}");
    assert!(stdout.contains("CNCF"), "{stdout}");
    assert!(stdout.contains("misconfiguration(s) across"), "{stdout}");
    // --progress streams one completion tick per application to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[1/10]"), "{stderr}");
    assert!(stderr.contains("[10/10]"), "{stderr}");
}

#[test]
fn census_is_identical_across_thread_counts() {
    let sequential = ij(&["census", "--org", "Wikimedia"]);
    let parallel = ij(&["census", "--org", "Wikimedia", "--threads", "4"]);
    assert!(sequential.status.success());
    assert!(parallel.status.success());
    assert_eq!(
        String::from_utf8_lossy(&sequential.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "--threads must not change a byte of the census output"
    );
}

#[test]
fn census_timings_flag_prints_phase_breakdown_to_stderr() {
    let plain = ij(&["census", "--org", "CNCF"]);
    let timed = ij(&["census", "--org", "CNCF", "--timings", "--threads", "2"]);
    assert!(plain.status.success());
    assert!(
        timed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&timed.stderr)
    );
    let stderr = String::from_utf8_lossy(&timed.stderr);
    for phase in ["timings:", "build", "render", "install", "probe", "analyze"] {
        assert!(stderr.contains(phase), "missing `{phase}` in {stderr}");
    }
    // The breakdown goes to stderr only; stdout stays byte-identical.
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&timed.stdout),
        "--timings must not change a byte of the census output"
    );
}

#[test]
fn census_timings_merge_across_shards() {
    // Sharded + threaded runs accumulate per-worker timings and merge them
    // into one report: the same phase lines print, and stdout is still
    // byte-identical to the untimed run.
    let plain = ij(&["census", "--synthetic", "40", "--seed", "7"]);
    let timed = ij(&[
        "census",
        "--synthetic",
        "40",
        "--seed",
        "7",
        "--shards",
        "4",
        "--threads",
        "2",
        "--timings",
    ]);
    assert!(plain.status.success());
    assert!(
        timed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&timed.stderr)
    );
    let stderr = String::from_utf8_lossy(&timed.stderr);
    for phase in ["timings:", "build", "render", "install", "probe", "analyze"] {
        assert!(stderr.contains(phase), "missing `{phase}` in {stderr}");
    }
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&timed.stdout),
        "--timings/--shards must not change a byte of the census output"
    );
}

/// Extracts every `--flag` token from a blob of text.
fn flags_in(text: &str) -> std::collections::BTreeSet<String> {
    let mut flags = std::collections::BTreeSet::new();
    for chunk in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
        if let Some(name) = chunk.strip_prefix("--") {
            // Skip markdown table rules (`---`) and require a real name.
            if !name.is_empty() && !name.starts_with('-') {
                flags.insert(format!("--{name}"));
            }
        }
    }
    flags
}

#[test]
fn help_stays_in_sync_with_the_readme_cli_contract() {
    let out = ij(&["help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).to_string();

    let readme = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md readable");
    let section_start = readme
        .find("## Command-line interface")
        .expect("README documents the CLI contract");
    let section = &readme[section_start..];
    let section = &section[..section[2..]
        .find("\n## ")
        .map(|i| i + 2)
        .unwrap_or(section.len())];

    // Every flag the binary advertises is documented, and vice versa —
    // including the synthetic-corpus flags.
    let in_help = flags_in(&help);
    let in_readme = flags_in(section);
    assert_eq!(
        in_help, in_readme,
        "ij help and the README CLI section list different flags"
    );
    for required in [
        "--synthetic",
        "--profile",
        "--mix",
        "--describe",
        "--rule-pack",
        "--without-rule",
        "--explain",
    ] {
        assert!(
            in_help.contains(required),
            "{required} missing from ij help"
        );
    }
    // The documented exit-code scheme and scenario names track the binary.
    for token in ["2", "3", "4", "1"] {
        assert!(help.contains(token), "exit code {token} missing from help");
    }
    for profile in [
        "baseline",
        "mesh-heavy",
        "monolith-heavy",
        "pipeline-heavy",
        "legacy",
        "policy-mature",
    ] {
        assert!(
            help.contains(profile),
            "profile {profile} missing from help"
        );
        assert!(
            section.contains(profile),
            "profile {profile} missing from README"
        );
    }
}

#[test]
fn census_synthetic_runs_a_generated_population() {
    let out = ij(&[
        "census",
        "--synthetic",
        "30",
        "--seed",
        "7",
        "--profile",
        "legacy",
        "--mix",
        "m7=0.5",
        "--threads",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("across 30 application(s)"), "{stdout}");
}

#[test]
fn census_is_identical_across_shard_and_thread_counts() {
    let reference = ij(&["census", "--synthetic", "40", "--seed", "7"]);
    assert!(
        reference.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    for (shards, threads) in [("2", "1"), ("8", "1"), ("2", "4"), ("8", "4")] {
        let sharded = ij(&[
            "census",
            "--synthetic",
            "40",
            "--seed",
            "7",
            "--shards",
            shards,
            "--threads",
            threads,
        ]);
        assert!(sharded.status.success());
        assert_eq!(
            String::from_utf8_lossy(&reference.stdout),
            String::from_utf8_lossy(&sharded.stdout),
            "--shards {shards} --threads {threads} changed a byte of the census output"
        );
    }
}

#[test]
fn shards_flag_requires_synthetic_and_rejects_garbage() {
    // The built-in corpus runs on the same engine as --synthetic, so
    // --shards partitions it too without changing a byte of the output.
    let reference = ij(&["census"]);
    assert!(reference.status.success());
    let sharded = ij(&["census", "--shards", "4", "--threads", "2"]);
    assert!(sharded.status.success());
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&sharded.stdout),
        "--shards 4 --threads 2 changed a byte of the built-in census"
    );

    let out = ij(&["census", "--synthetic", "10", "--shards", "lots"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid --shards"));

    // corpus --describe never analyzes: census-only flags are rejected.
    let out = ij(&["corpus", "--describe", "--shards", "4"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn corpus_describe_prints_population_summaries() {
    // Built-in corpus: the Table 2 ground truth.
    let out = ij(&["corpus", "--describe"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("290 application(s)"), "{stdout}");
    assert!(
        stdout.contains("total expected: 634 finding(s)"),
        "{stdout}"
    );

    // Synthetic population: summary matches the generator.
    let out = ij(&[
        "corpus",
        "--describe",
        "--synthetic",
        "40",
        "--seed",
        "3",
        "--profile",
        "mesh-heavy",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mesh-heavy"), "{stdout}");
    assert!(stdout.contains("40 application(s), seed 3"), "{stdout}");

    // --describe is mandatory for the corpus subcommand.
    let out = ij(&["corpus"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "corpus without --describe is usage"
    );

    // Census-only flags are not silently ignored on `corpus`.
    for flags in [
        &["corpus", "--describe", "--org", "CNCF"][..],
        &["corpus", "--describe", "--threads", "4"][..],
        &["corpus", "--describe", "--progress"][..],
    ] {
        let out = ij(flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?} is a usage error");
    }
    // Neither is a --seed that cannot affect the built-in summary.
    let out = ij(&["corpus", "--describe", "--seed", "99"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "--seed without --synthetic errors"
    );
}

#[test]
fn synthetic_flag_errors_use_the_documented_exit_codes() {
    let out = ij(&["census", "--synthetic", "10", "--profile", "not-a-profile"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown profile"), "{stderr}");
    assert!(
        stderr.contains("mesh-heavy"),
        "names the valid profiles: {stderr}"
    );

    let out = ij(&["census", "--synthetic", "10", "--mix", "m9=1.0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rule"));

    let out = ij(&["census", "--synthetic", "10", "--mix", "m1=lots"]);
    assert_eq!(out.status.code(), Some(1));

    let out = ij(&["census", "--synthetic", "many"]);
    assert_eq!(out.status.code(), Some(1));

    let out = ij(&["census", "--synthetic", "10", "--org", "CNCF"]);
    assert_eq!(out.status.code(), Some(1), "--org and --synthetic conflict");

    let out = ij(&["census", "--profile", "baseline"]);
    assert_eq!(out.status.code(), Some(1), "--profile requires --synthetic");

    let out = ij(&["census", "--describe"]);
    assert_eq!(out.status.code(), Some(2), "--describe is corpus-only");
}

#[test]
fn census_rejects_unknown_dataset_and_bad_flags() {
    let out = ij(&["census", "--org", "NotADataset"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown dataset"), "{stderr}");
    assert!(stderr.contains("Banzai Cloud"), "names the valid datasets");

    let out = ij(&["census", "--threads", "many"]);
    assert_eq!(out.status.code(), Some(1));

    let out = ij(&["census", "--bogus-flag"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag is a usage error");
}

#[test]
fn rules_subcommand_lists_the_registry_and_explains_rules() {
    // Plain listing: every native rule, tagged native and enabled.
    let out = ij(&["rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for heading in ["NAME", "CLASSES", "SCOPE", "ORIGIN", "ENABLED"] {
        assert!(stdout.contains(heading), "{stdout}");
    }
    for name in ["m1", "m5", "m7", "m4star"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    assert!(stdout.contains("native"), "{stdout}");
    assert!(!stdout.contains("pack"), "no pack loaded: {stdout}");

    // With the built-in pack: shadowed natives flip to pack origin, the
    // native m5 aggregate is disabled, and the m5 sub-rules appear.
    let out = ij(&["rules", "--rule-pack", "packs/builtin.rules"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pack"), "{stdout}");
    for name in ["m5a", "m5b", "m5c", "m5d"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    let m5_row = stdout
        .lines()
        .find(|l| l.starts_with("m5 "))
        .expect("m5 row");
    assert!(
        m5_row.contains("no"),
        "native m5 disabled by pack: {m5_row}"
    );

    // --explain prints a pack rule's expression and message template.
    let out = ij(&[
        "rules",
        "--rule-pack",
        "packs/builtin.rules",
        "--explain",
        "m7",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("when:"), "{stdout}");
    assert!(stdout.contains("unit.host_network"), "{stdout}");
    assert!(stdout.contains("hostNetwork: true"), "{stdout}");

    // Native rules explain too, pointing at the Rust body.
    let out = ij(&["rules", "--explain", "m3"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("native"));

    // Unknown names are usage errors that list the known rules.
    let out = ij(&["rules", "--explain", "m99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule `m99`"), "{stderr}");
    assert!(stderr.contains("m4star"), "lists the known rules: {stderr}");
}

#[test]
fn census_rule_pack_is_byte_identical_and_pack_errors_carry_positions() {
    // The built-in pack replaces five native rules without changing a byte.
    let native = ij(&["census", "--synthetic", "40", "--seed", "11"]);
    let packed = ij(&[
        "census",
        "--synthetic",
        "40",
        "--seed",
        "11",
        "--rule-pack",
        "packs/builtin.rules",
    ]);
    assert!(native.status.success());
    assert!(
        packed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&packed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&native.stdout),
        String::from_utf8_lossy(&packed.stdout),
        "--rule-pack packs/builtin.rules must not change the census"
    );

    // A malformed pack is a usage error rendering the file position.
    let dir = std::env::temp_dir().join(format!("ij-cli-test-pack-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let bad = dir.join("bad.rules");
    write(
        &bad,
        "rule broken\n  class = M7\n  select = unit\n  when = unit.host_network &&\n  message = x\nend\n",
    );
    let out = ij(&[
        "census",
        "--synthetic",
        "5",
        "--rule-pack",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "pack errors are usage errors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.rules"), "{stderr}");
    assert!(stderr.contains("line 4, column"), "{stderr}");

    // A missing pack file is an ordinary failure, not a panic.
    let out = ij(&["census", "--synthetic", "5", "--rule-pack", "no/such.rules"]);
    assert_eq!(out.status.code(), Some(1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn without_rule_flag_disables_rules_and_rejects_typos() {
    // Disabling m7 drops the hostNetwork finding from the demo chart's
    // census... exercised on the synthetic corpus for speed.
    let all = ij(&["census", "--synthetic", "30", "--seed", "7"]);
    let without = ij(&[
        "census",
        "--synthetic",
        "30",
        "--seed",
        "7",
        "--without-rule",
        "m7",
        "--without-rule",
        "m1",
    ]);
    assert!(all.status.success());
    assert!(without.status.success());
    assert_ne!(
        String::from_utf8_lossy(&all.stdout),
        String::from_utf8_lossy(&without.stdout),
        "disabling rules must change the census"
    );

    // A typo is a usage error naming the known rules — not a silent no-op.
    let out = ij(&["census", "--synthetic", "5", "--without-rule", "m7x"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule `m7x`"), "{stderr}");
    assert!(stderr.contains("known rules"), "{stderr}");

    // corpus --describe never analyzes, so the analyzer flags are rejected.
    for flags in [
        &["corpus", "--describe", "--rule-pack", "packs/builtin.rules"][..],
        &["corpus", "--describe", "--without-rule", "m7"][..],
    ] {
        let out = ij(flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?} is a usage error");
    }
}

#[test]
fn serve_runs_the_churn_workload_deterministically() {
    let args = &[
        "serve",
        "--clusters",
        "2",
        "--mutations",
        "40",
        "--seed",
        "7",
    ];
    let first = ij(args);
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("total: 40 mutation(s)"), "{stdout}");
    assert!(stdout.contains("introduced"), "{stdout}");
    let second = ij(args);
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&second.stdout),
        "serve output must be a pure function of its flags"
    );
}

#[test]
fn serve_verify_checks_the_oracle_without_changing_output() {
    let plain = ij(&["serve", "--mutations", "30", "--seed", "3"]);
    let verified = ij(&["serve", "--mutations", "30", "--seed", "3", "--verify"]);
    assert!(plain.status.success());
    assert!(
        verified.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&verified.stderr)
    );
    let out = String::from_utf8_lossy(&verified.stdout);
    assert!(
        out.contains("verified against the full-recompute oracle"),
        "{out}"
    );
    // Everything but the verification banner is byte-identical.
    let stripped: String = out
        .lines()
        .filter(|l| !l.contains("oracle"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(String::from_utf8_lossy(&plain.stdout), stripped);
}

#[test]
fn serve_rejects_bad_flags() {
    let out = ij(&["serve", "--bogus"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag is a usage error");

    let out = ij(&["serve", "--mutations", "lots"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid --mutations"));

    let out = ij(&["serve", "--clusters", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one cluster"));

    let out = ij(&["serve", "--profile", "not-a-profile", "--mutations", "5"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown profile"));
}

#[test]
fn render_failure_uses_render_exit_code() {
    let dir = std::env::temp_dir().join(format!("ij-cli-test-badchart-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    write(&dir.join("Chart.yaml"), "name: bad\nversion: 0.0.1\n");
    write(
        &dir.join("templates/broken.yaml"),
        "value: {{ .Values.x\n", // unclosed template action
    );
    let out = ij(&["analyze", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "render failures exit with 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to render"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn chart_commands_match_the_oracle_on_the_fixture_charts() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixtures = repo.join("fixtures/charts");
    let report = run_conformance(&fixtures).expect("fixtures are readable");
    let committed = fs::read_to_string(repo.join("CONFORMANCE.json")).expect("baseline");
    assert_eq!(report.to_json(), committed, "CONFORMANCE.json is current");

    // Every conformant fixture: `ij render` prints exactly the oracle's
    // manifest stream.
    let mut conformant = 0;
    for chart in &report.charts {
        if chart.status != ChartStatus::Conformant {
            continue;
        }
        let dir = fixtures.join(&chart.chart);
        let loaded = Chart::from_dir(&dir).expect("conformant fixtures load");
        let oracle = loaded
            .render(&Release::new(&loaded.name, "default"))
            .expect("the oracle renders conformant fixtures");
        let expected: String = oracle
            .objects
            .iter()
            .map(|o| format!("---\n{}", o.to_manifest()))
            .collect();
        let out = ij(&["render", dir.to_str().unwrap()]);
        assert!(out.status.success(), "{}", chart.chart);
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "{}",
            chart.chart
        );
        conformant += 1;
    }
    assert_eq!(conformant, 11);

    // The unsupported fixtures keep their exit codes and messages.
    let crypto = fixtures.join("crypto-hooks");
    let anchors = fixtures.join("anchors-values");
    let packed = fixtures.join("packed-dep");
    let cases = [
        (
            &crypto,
            3,
            "chart crypto-hooks failed to render: template `secret.yaml`: line 7: \
             unknown function `b64enc`"
                .to_string(),
        ),
        (
            &anchors,
            1,
            format!(
                "chart ingest failed: {}: invalid values.yaml: yaml parse error at line 1: \
                 YAML anchors (`&...`) are not supported",
                anchors.join("values.yaml").display()
            ),
        ),
        (
            &packed,
            1,
            format!(
                "chart ingest failed: {}: packed subchart archives are not supported \
                 (unpack into charts/<name>/)",
                packed.join("charts/common-1.0.0.tgz").display()
            ),
        ),
    ];
    for (dir, code, message) in cases {
        for command in ["render", "analyze", "disclose"] {
            let out = ij(&[command, dir.to_str().unwrap()]);
            assert_eq!(out.status.code(), Some(code), "{command} {}", dir.display());
            assert!(out.stdout.is_empty());
            assert_eq!(
                String::from_utf8_lossy(&out.stderr),
                format!("error: {message}\n")
            );
        }
    }
}

#[test]
fn static_only_flag_is_accepted() {
    let dir = demo_chart_dir("static");
    let out = ij(&["analyze", dir.to_str().unwrap(), "--static-only"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("finding(s)"));
    let _ = fs::remove_dir_all(&dir);
}

/// A fixtures directory holding one fully-supported demo chart, plus
/// (optionally) one chart the engine rejects over a YAML anchor.
fn conform_fixtures(tag: &str, with_unsupported: bool) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ij-cli-conform-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let demo = root.join("demo");
    write(&demo.join("Chart.yaml"), "name: demo\nversion: 0.1.0\n");
    write(&demo.join("values.yaml"), "port: 8080\n");
    write(
        &demo.join("templates/deploy.yaml"),
        "\
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ .Release.Name }}-app
spec:
  replicas: 1
  selector:
    matchLabels:
      app: demo
  template:
    metadata:
      labels:
        app: demo
    spec:
      containers:
        - name: app
          image: img/app
          ports:
            - containerPort: {{ .Values.port }}
",
    );
    if with_unsupported {
        let bad = root.join("anchored");
        write(&bad.join("Chart.yaml"), "name: anchored\nversion: 0.1.0\n");
        write(&bad.join("values.yaml"), "defaults: &d\n  cpu: 100m\n");
    }
    root
}

#[test]
fn conform_exits_zero_when_every_chart_is_conformant() {
    let root = conform_fixtures("allgood", false);
    let out = ij(&["conform", root.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("conformant"), "{stdout}");
    assert!(
        stdout.contains("1 chart(s): 1 conformant, 0 unsupported, 0 divergent"),
        "{stdout}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn conform_exits_one_with_per_chart_summary_on_losses() {
    let root = conform_fixtures("losses", true);
    let out = ij(&["conform", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "an unsupported chart is a loss");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Per-chart summary: both charts are listed, nothing silently skipped.
    assert!(stdout.contains("anchored"), "{stdout}");
    assert!(stdout.contains("unsupported"), "{stdout}");
    assert!(stdout.contains("anchor"), "the feature is named: {stdout}");
    assert!(stdout.contains("demo"), "{stdout}");
    assert!(
        stdout.contains("2 chart(s): 1 conformant, 1 unsupported, 0 divergent"),
        "{stdout}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn conform_writes_artifacts_and_gates_on_the_baseline() {
    let root = conform_fixtures("baseline", true);
    let json = root.join("out.json");
    let md = root.join("out.md");
    let out = ij(&[
        "conform",
        root.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
        "--report",
        md.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "losses still exit 1 while writing"
    );
    let json_text = fs::read_to_string(&json).expect("JSON artifact written");
    assert!(
        json_text.contains("\"status\": \"unsupported\""),
        "{json_text}"
    );
    assert!(json_text.contains("\"conformant\": 1"), "{json_text}");
    let md_text = fs::read_to_string(&md).expect("markdown artifact written");
    assert!(md_text.contains("ranked by charts lost"), "{md_text}");

    // With the freshly-written baseline the same losses are explained.
    let out = ij(&[
        "conform",
        root.to_str().unwrap(),
        "--baseline",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "baselined unsupported features are explained; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A drifted baseline fails the gate.
    fs::write(&json, json_text.replace("unsupported", "conformant")).expect("tamper");
    let out = ij(&[
        "conform",
        root.to_str().unwrap(),
        "--baseline",
        json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("drifted"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn conform_usage_errors_exit_two() {
    // No fixtures directory at all.
    let out = ij(&["conform"]);
    assert_eq!(out.status.code(), Some(2));

    // Unknown flag.
    let root = conform_fixtures("usage", false);
    let out = ij(&["conform", root.to_str().unwrap(), "--bogus"]);
    assert_eq!(out.status.code(), Some(2));

    // Flag missing its value.
    let out = ij(&["conform", root.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(2));

    // A nonexistent path is a runtime failure, not a usage error.
    let out = ij(&["conform", root.join("missing").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a directory"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn conform_gate_holds_on_the_vendored_fixtures() {
    // The exact invocation CI runs: the committed baseline explains every
    // unsupported fixture, so the gate passes.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = ij(&[
        "conform",
        repo.join("fixtures/charts").to_str().unwrap(),
        "--baseline",
        repo.join("CONFORMANCE.json").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 divergent"), "{stdout}");
}
