//! Pinned plan digests on graphs too large for exact OR-path enumeration.
//!
//! The goldens and bench baselines cover the paper's workloads; these
//! graphs are chains of random segments (`RandomAppParams::chained`) with
//! more than `ENUMERATION_THRESHOLD` OR-paths each, so the offline phase
//! runs on dozens to hundreds of sections with deep ancestry. An
//! artifact's SHA-256 digest covers the whole offline plan (dispatch
//! orders, latest start times, branch tables, per-section lengths) and
//! the scheme's derived parameters, so any change to the offline phase's
//! output on these graphs changes a digest here.

use pas_andor::analyze::{analyze_bounds, BoundsConfig};
use pas_andor::core::{PlanArtifact, Scheme, Setup};
use pas_andor::power::ProcessorModel;
use pas_andor::workloads::RandomAppParams;

/// The schemes each plan is pinned under.
const SCHEMES: [Scheme; 3] = [Scheme::Gss, Scheme::Ss2, Scheme::As];
/// The loads each graph is planned at.
const LOADS: [f64; 3] = [0.3, 0.6, 1.0];

/// One pinned graph: its chain seed and length, the platform and
/// processor count, and one digest per (load, scheme) in `LOADS` ×
/// `SCHEMES` order.
struct Pinned {
    seed: u64,
    segments: usize,
    platform: &'static str,
    procs: usize,
    digests: [&'static str; 9],
}

const PINNED: [Pinned; 3] = [
    Pinned {
        seed: 5,
        segments: 6,
        platform: "xscale",
        procs: 2,
        digests: [
            "5acbad9cc6294df470d9226d34647a1fc07eae68860a246c5c58ba65ae9d2588",
            "df6bf085c776a4f58851a6ca568b6379b548061c63d5e05555f9ec6f823bfa72",
            "c1c7a693c401f2f42f3485530b0106a0ce1b4d0f6622f4d84187c348fd1a59c9",
            "ca0c378fe6ae93723e8d30d2b856f465a7277c455eb8446b10725cf51c78fede",
            "e0134b2c8946cdb9a65a36019de211911b55997ead7fa5912268fbd8cfb984ed",
            "306ce7abccfafa22ddfaeeb845441bb136796f6f24d6ed053b79b4d1bb97091b",
            "1ac60cdb61a7aeb62f358fbb6c5bc625de0816a8398c33f95e62baf26d5b1d34",
            "20e176bb4270c589d9c733ff3a6dcbf63c49e02c0c732cc330307e6849c6a04c",
            "70e4421dd2b914193d5bdc5d621ae8808eae8695447cf5e631cd30ef8b035a54",
        ],
    },
    Pinned {
        seed: 7,
        segments: 8,
        platform: "transmeta",
        procs: 4,
        digests: [
            "e0484b420e7f8938f3d69f15e7463c6f8fbb171dca5d1d8109fb46537f8f89e9",
            "761a37ee4b3b809a847fd67823761c099a057ccd4a14c906dfd709707f78b4bb",
            "7739e61c554a77fc788c1d92dfc719d368971db6f9cf20e1181e1e880223731a",
            "f9e4cf82358e24ca458cf4bc36d5544821b408600c0220b32b8a063aa2812bd2",
            "9b2fa5fa6661cbb9aafb4c91bca7a5b3bab794577daa983cfd7f6643aef13f3c",
            "0b61c1fdf9174d214a295c971f46e4c3a9d3072469922002a78021c17c1ba85c",
            "d86b5438467bf60b42976798242287756979151012749e1306ed593cbb497f3d",
            "22fea59073ba1513c8d2310526088630c7aacf55a0cf8d2e55bfe9e2c0c970ca",
            "da6e78819bf5c6463fd5dba3da1a087efa8b3a839641ae49e2c371e378ecf5d5",
        ],
    },
    Pinned {
        seed: 0,
        segments: 16,
        platform: "xscale",
        procs: 3,
        digests: [
            "dacafb2a23bc026dbc4ed54979bcbea5a22e2430775df96f3c9877ca3612cbbf",
            "460462c064361d3aaaa9d43071e9af2d52d6579eef920103860144f29cfba82e",
            "26bfbed95838d94da4b0ab82c01be2520323eeaebec48896a3cca0e82ee29a8c",
            "31dd8bb05b4dbbf95db75bb2fdce672c26a33435e5dfb9abc95280db11e43bce",
            "7da1dc0b9f7cc74acfc8579badef80e3262457fc330689235ed0b0e75160cbde",
            "671298c995966b2288281bfe36e15cb9103ce3dca8ac3910c743233c62b5b2f4",
            "dc69beee6dbb85b887b43adad2773156aa62700f27d2d9d7d784315c8125f71e",
            "eda42d9697b8210df1209544db17a54b276071b14d12bcfb23b3e79d30bf66e7",
            "d59a2b47859174ef3efb033400209613b9ffde907b748bc7324e11c457673aca",
        ],
    },
];

fn model(platform: &str) -> ProcessorModel {
    match platform {
        "xscale" => ProcessorModel::xscale(),
        _ => ProcessorModel::transmeta5400(),
    }
}

#[test]
fn large_graph_plan_digests_are_pinned() {
    let params = RandomAppParams {
        max_depth: 5,
        ..RandomAppParams::default()
    };
    let mut mismatches = Vec::new();
    for pin in &PINNED {
        let g = params
            .chained(pin.seed, pin.segments)
            .lower()
            .expect("chained segments lower");
        let mut digests = pin.digests.iter();
        for (i, load) in LOADS.into_iter().enumerate() {
            let setup = Setup::for_load(g.clone(), model(pin.platform), pin.procs, load)
                .expect("every load in (0, 1] is feasible");
            if i == 0 {
                let bounds = analyze_bounds(&setup, &BoundsConfig::default(), "pinned");
                assert!(
                    !bounds.exact,
                    "seed {}: the graph must exceed the enumeration threshold",
                    pin.seed
                );
            }
            for scheme in SCHEMES {
                let label = format!("chain-{}x{}", pin.seed, pin.segments);
                let digest = PlanArtifact::from_setup(&setup, scheme, &label, pin.platform)
                    .digest()
                    .expect("artifact serializes");
                let want = digests.next().expect("one digest per (load, scheme)");
                if digest != *want {
                    mismatches.push(format!(
                        "seed {} load {load} {}: {digest} (pinned {want})",
                        pin.seed,
                        scheme.name()
                    ));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
