//! The paper's Figure-3 synthetic application, dissected.
//!
//! Prints the program-section decomposition, the off-line phase's
//! per-PMP statistics (worst/average remaining times), one traced GSS run,
//! and an energy comparison of all six schemes.
//!
//! Run with: `cargo run --example synthetic_app`

use pas_andor::core::{Scheme, Setup};
use pas_andor::power::ProcessorModel;
use pas_andor::sim::ExecTimeModel;
use pas_andor::workloads::synthetic_app;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = synthetic_app().lower()?;
    let setup = Setup::for_load(graph, ProcessorModel::transmeta5400(), 2, 0.5)?;

    println!("== Program sections ==");
    for (i, section) in setup.sections.sections().iter().enumerate() {
        let names: Vec<&str> = section
            .nodes
            .iter()
            .map(|&n| setup.graph.node(n).name.as_str())
            .collect();
        let exit = section
            .exit_or
            .map(|o| setup.graph.node(o).name.clone())
            .unwrap_or_else(|| "end".into());
        println!(
            "  s{i} (depth {}): [{}] -> {}",
            section.depth,
            names.join(", "),
            exit
        );
    }

    println!("\n== Off-line phase ==");
    println!(
        "  Tw = {:.1} ms, Ta = {:.1} ms, deadline = {:.1} ms",
        setup.plan.worst_total, setup.plan.avg_total, setup.plan.deadline
    );
    for ((or, k), tw) in &setup.plan.branch_worst {
        let ta = setup.plan.branch_avg[&(*or, *k)];
        println!(
            "  PMP at {} branch {k}: Tw_k = {tw:.1} ms, Ta_k = {ta:.1} ms",
            setup.graph.node(*or).name
        );
    }

    println!("\n== One traced GSS run ==");
    let mut rng = StdRng::seed_from_u64(42);
    let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
    let mut policy = setup.policy(Scheme::Gss);
    let res = setup.simulator(true).run(policy.as_mut(), &real)?;
    println!("  task            proc  start(ms)  end(ms)  speed");
    for e in res.trace.as_ref().unwrap() {
        println!(
            "  {:<15} {:>4}  {:>9.2}  {:>7.2}  {:>5.2}",
            setup.graph.node(e.node).name,
            e.proc,
            e.start,
            e.end,
            e.speed
        );
    }
    println!(
        "  finished at {:.2} ms (deadline {:.1}), energy {:.2}, {} speed changes",
        res.finish_time,
        res.deadline,
        res.total_energy(),
        res.energy.speed_changes()
    );

    println!("\n== Scheme comparison (500 runs) ==");
    let mut rng = StdRng::seed_from_u64(7);
    let etm = ExecTimeModel::paper_defaults();
    let mut totals = vec![0.0_f64; Scheme::ALL.len()];
    for _ in 0..500 {
        let real = setup.sample(&etm, &mut rng);
        for (i, scheme) in Scheme::ALL.iter().enumerate() {
            totals[i] += setup.run(*scheme, &real)?.total_energy();
        }
    }
    for (i, scheme) in Scheme::ALL.iter().enumerate() {
        println!("  {:<7} {:.4}", scheme.name(), totals[i] / totals[0]);
    }
    Ok(())
}
