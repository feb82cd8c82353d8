//! Every CLI front end reads a workload file through the same loader: a
//! large random graph shaped like the benchmark's offline-large ones goes
//! through `pas plan`, `pas check`, `pas run` and `pas check --against`,
//! and the plan digest `pas plan` prints equals the digest of the
//! artifact built in process from the same graph and labels.

use pas_andor::core::{PlanArtifact, Scheme, Setup};
use pas_andor::power::ProcessorModel;
use pas_andor::workloads::RandomAppParams;
use std::path::PathBuf;

/// Random segments chained into the graph, as in offline-large: about
/// 10,000 nodes and a 1 MB file, far above the 4,096-path enumeration
/// threshold.
const SEGMENTS: usize = 256;

fn pas(argv: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    pas_cli::run(&argv)
}

#[test]
fn every_front_end_loads_a_large_workload_file_alike() {
    let params = RandomAppParams {
        max_depth: 5,
        max_seq_len: 4,
        max_par_width: 3,
        max_branch_arms: 3,
        ..RandomAppParams::default()
    };
    let graph = params
        .chained(0x0FF1_1AE0, SEGMENTS)
        .lower()
        .expect("random segments lower");
    assert!(graph.len() > 5_000, "{} nodes", graph.len());

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("one_loader");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("large.json");
    let plan = dir.join("large.plan.json");
    let (file, plan) = (
        file.to_str().expect("utf-8 path"),
        plan.to_str().expect("utf-8 path"),
    );
    std::fs::write(
        file,
        serde_json::to_string_pretty(&graph).expect("graph prints"),
    )
    .expect("write workload");

    let flags = ["--procs", "4", "--load", "0.6", "--scheme", "gss"];
    let mut argv = vec!["plan", file, "xscale", "--out", plan];
    argv.extend(flags);
    let out = pas(&argv).expect("plan succeeds");
    let printed = out
        .lines()
        .find_map(|l| l.strip_prefix("digest sha256:"))
        .expect("plan prints its digest");

    let setup = Setup::for_load(graph, ProcessorModel::xscale(), 4, 0.6).expect("feasible");
    let artifact = PlanArtifact::from_setup(&setup, Scheme::Gss, file, "xscale");
    assert_eq!(printed, artifact.digest().expect("artifact prints"));
    let written = std::fs::read_to_string(plan).expect("plan file");
    assert_eq!(printed, PlanArtifact::digest_of(&written));

    let mut argv = vec!["check", file, "xscale"];
    argv.extend(flags);
    let report = pas(&argv).expect("the workload checks clean");
    assert!(
        report.contains(&format!("feasibility: {file} on xscale")),
        "{report}"
    );

    let mut argv = vec!["run", "--app", file, "--model", "xscale"];
    argv.extend(flags);
    let run = pas(&argv).expect("run succeeds");
    assert!(run.contains("deadline met"), "{run}");

    let report = pas(&["check", plan, "--against", file, "xscale"]).expect("plan verifies");
    assert!(
        report.contains(&format!("verified against {file} on xscale")),
        "{report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
