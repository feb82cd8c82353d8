//! Every front end refuses what `pas check` refuses.
//!
//! Each file under `tests/fixtures/invalid/` goes through every command
//! and serve handler that reads its kind of input. Each must refuse it,
//! and the refusal must name the first error code `pas check F` reports:
//! the input rules live once, in the crate that owns each input type, so
//! no front end can accept what another refuses.

use std::path::PathBuf;

fn fixtures() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/invalid");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().expect("name").to_string_lossy().into();
            (name, path.to_str().expect("utf-8 path").to_string())
        })
        .collect();
    files.sort();
    files
}

fn valid(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/valid")
        .join(name)
        .to_str()
        .expect("utf-8 path")
        .to_string()
}

fn cli(argv: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    pas_cli::run(&argv)
}

/// The codes of a rendered diagnostics array's error-severity entries.
fn error_codes(diagnostics: &serde::Value) -> Vec<String> {
    diagnostics
        .as_array()
        .expect("diagnostics array")
        .iter()
        .filter(|d| d.get("severity").and_then(|s| s.as_str()) == Some("error"))
        .map(|d| {
            d.get("code")
                .and_then(|c| c.as_str())
                .expect("code")
                .to_string()
        })
        .collect()
}

/// The first error code `pas check F` reports.
fn check_code(path: &str) -> String {
    let report = cli(&["check", path, "--format", "json"]).expect_err("check refuses");
    let doc: serde::Value = serde_json::from_str(&report).expect("JSON report");
    let codes = error_codes(doc.get("diagnostics").expect("diagnostics"));
    codes.first().expect("an error").clone()
}

/// The first `error[PASxxxx]` a rendered human report names.
fn first_error(refusal: &str) -> Option<&str> {
    let at = refusal.find("error[PAS")? + "error[".len();
    refusal.get(at..at + 7)
}

fn serve_line(kind: &str, path: &str) -> String {
    let workload = serde_json::to_string(&serde::Value::Str(path.to_string())).expect("string");
    format!(r#"{{"kind":"{kind}","workload":{workload},"batch":4}}"#)
}

#[test]
fn every_front_end_refuses_what_check_refuses() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("front_end_agreement.json");
    let out = out.to_str().expect("utf-8 path");
    let tiny = valid("graph_tiny.json");
    let svc = pas_serve::Service::start(pas_serve::ServeConfig {
        workers: 1,
        queue_cap: 8,
        ..pas_serve::ServeConfig::default()
    });
    let mut wrong = Vec::new();
    let mut refusals = 0;
    for (name, path) in fixtures() {
        let want = check_code(&path);
        let p = path.as_str();
        let argvs: Vec<Vec<&str>> = if name.starts_with("graph_") {
            let mut v = vec![vec!["plan", p, "xscale"]];
            for cmd in [
                "run", "trace", "compare", "inspect", "optimal", "dot", "export",
            ] {
                let mut argv = vec![cmd, "--app", p];
                match cmd {
                    "compare" => argv.extend(["--reps", "2"]),
                    "export" => argv.extend(["--out", out]),
                    _ => {}
                }
                v.push(argv);
            }
            v
        } else if name.starts_with("platform_") {
            vec![vec!["plan", &tiny, p], vec!["plan", "synthetic", p]]
        } else if name.starts_with("fault_") {
            vec![
                vec!["run", "--app", "synthetic", "--fault-plan", p],
                vec!["trace", "--app", "synthetic", "--fault-plan", p],
            ]
        } else {
            panic!("{name}: no front ends listed for this kind of fixture");
        };
        for argv in argvs {
            refusals += 1;
            match cli(&argv) {
                Ok(_) => wrong.push(format!("{}: accepted", argv.join(" "))),
                Err(e) if first_error(&e) != Some(want.as_str()) => {
                    wrong.push(format!("{}: wanted {want}, got {e}", argv.join(" ")))
                }
                Err(_) => {}
            }
        }
        if name.starts_with("graph_") {
            for kind in ["plan", "run", "montecarlo"] {
                refusals += 1;
                let line = serve_line(kind, p);
                let resp: serde::Value =
                    serde_json::from_str(&svc.handle_line(&line)).expect("JSON reply");
                let code = resp.get("code").and_then(|c| c.as_str());
                let first = resp
                    .get("diagnostics")
                    .map(error_codes)
                    .and_then(|c| c.first().cloned());
                if code != Some("PAS0503") || first.as_deref() != Some(want.as_str()) {
                    wrong.push(format!(
                        "serve {line}: wanted PAS0503 naming {want}, got {resp:?}"
                    ));
                }
            }
        }
    }
    assert_eq!(svc.shutdown(), 0, "requests left in flight");
    assert!(refusals >= 130, "only {refusals} refusals tried");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
