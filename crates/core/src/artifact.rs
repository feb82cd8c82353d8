//! Serialized offline plans: the versioned on-disk form of the off-line
//! phase's output, per scheme.
//!
//! The paper's Theorem 1 is proved over the *canonical schedule* — the
//! latest start times, the `Tw`/`Ta` statistics and, for the speculative
//! schemes, the derived speed parameters. [`PlanArtifact`] makes that
//! whole object a first-class file: `pas plan --out plan.json` writes it,
//! `pas check plan.json --against <workload> <platform>` re-derives it
//! independently and diffs every field (the `PAS04xx` diagnostics in
//! `pas-analyze`), and [`PlanArtifact::into_setup`] runs the engine *from
//! the deserialized plan* so a verified artifact is also a runnable one.
//!
//! Serialization is deterministic: the offline serde layer emits map
//! entries in sorted key order, so building the same plan twice yields
//! byte-identical JSON — which is what makes "serialize → deserialize →
//! re-derive → byte-identical" a property test rather than a hope.

use crate::harness::{Setup, SetupError};
use crate::offline::OfflinePlan;
use crate::policies::{Scheme, SchemeParams};
use andor_graph::AndOrGraph;
use dvfs_power::{Overheads, ProcessorModel};
use serde::{Deserialize, Serialize};

/// Version of the plan-artifact JSON schema. Bumped on any breaking
/// change to [`PlanArtifact`] or the types it embeds; `pas check` rejects
/// other versions with `PAS0401`.
pub const PLAN_SCHEMA_VERSION: u32 = 1;

/// The complete serialized offline artifact for one
/// (workload, platform, scheme) triple: everything the on-line phase
/// needs, in a versioned, diffable, independently re-derivable form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanArtifact {
    /// Schema version ([`PLAN_SCHEMA_VERSION`]); checked by `pas check`
    /// before anything else (`PAS0401`).
    pub schema_version: u32,
    /// Label of the workload the plan was built from (builtin name or
    /// file path) — informational; verification uses `--against`.
    pub workload: String,
    /// Label of the platform the plan was built for.
    pub platform: String,
    /// The scheme whose parameters are embedded.
    pub scheme: Scheme,
    /// The overhead configuration the plan's PMP reservation assumed.
    pub overheads: Overheads,
    /// Scheme-specific derived parameters.
    pub params: SchemeParams,
    /// The full off-line phase output: canonical schedule, latest start
    /// times, `Tw`/`Ta`, per-OR-branch remaining-time tables.
    pub plan: OfflinePlan,
}

impl PlanArtifact {
    /// Builds the artifact for one scheme from a prepared [`Setup`].
    pub fn from_setup(setup: &Setup, scheme: Scheme, workload: &str, platform: &str) -> Self {
        let params = {
            let _span =
                pas_obs::profile::span_with(pas_obs::profile::names::ARTIFACT_SPEEDS, || {
                    scheme.name().to_string()
                });
            SchemeParams::derive(scheme, &setup.plan, &setup.model, setup.overheads)
        };
        PlanArtifact {
            schema_version: PLAN_SCHEMA_VERSION,
            workload: workload.to_string(),
            platform: platform.to_string(),
            scheme,
            overheads: setup.overheads,
            params,
            plan: setup.plan.clone(),
        }
    }

    /// Serializes to the canonical pretty-JSON form (deterministic: equal
    /// plans produce byte-identical output).
    pub fn to_json(&self) -> Result<String, String> {
        let _span = pas_obs::profile::span(pas_obs::profile::names::ARTIFACT_SERIALIZE);
        serde_json::to_string_pretty(self).map_err(|e| format!("serializing plan: {e}"))
    }

    /// Deserializes an artifact from JSON. Parsing does not check the
    /// schema version — that is `pas check`'s job (`PAS0401`), so older
    /// files still produce a diagnostic instead of a parse error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("parsing plan: {e}"))
    }

    /// [`PlanArtifact::from_json`] for JSON already parsed into a tree.
    pub fn from_value(value: &serde::Value) -> Result<Self, String> {
        serde_json::from_value(value).map_err(|e| format!("parsing plan: {e}"))
    }

    /// The content digest of this artifact: SHA-256 over the canonical
    /// JSON serialization (workload and platform labels, scheme,
    /// overheads, derived parameters and the full offline plan).
    ///
    /// Because [`PlanArtifact::to_json`] is deterministic, equal plans
    /// digest identically across runs and machines, and *any* field
    /// change produces a different digest — which is what lets `pas
    /// serve` use the digest as a content-addressed cache key and `pas
    /// plan` print it as a verifiable receipt.
    pub fn digest(&self) -> Result<String, String> {
        Ok(Self::digest_of(&self.to_json()?))
    }

    /// The digest of an artifact already serialized by
    /// [`PlanArtifact::to_json`]: callers that hold the JSON hash it
    /// without serializing the artifact a second time.
    pub fn digest_of(json: &str) -> String {
        let _span = pas_obs::profile::span(pas_obs::profile::names::ARTIFACT_DIGEST);
        crate::digest::sha256_hex(json.as_bytes())
    }

    /// Rebuilds a runnable [`Setup`] around the *deserialized* plan —
    /// no re-derivation, the engine runs from exactly what the file said
    /// (shape-checked against `graph` first).
    pub fn into_setup(self, graph: AndOrGraph, model: ProcessorModel) -> Result<Setup, SetupError> {
        Setup::from_plan(graph, model, self.plan, self.overheads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::Segment;

    fn setup() -> Setup {
        let app = Segment::seq([
            Segment::task("A", 8.0, 5.0),
            Segment::branch([
                (0.3, Segment::task("B", 5.0, 3.0)),
                (0.7, Segment::task("C", 4.0, 2.0)),
            ]),
        ]);
        Setup::for_load(
            app.lower().expect("fixture lowers"),
            ProcessorModel::xscale(),
            2,
            0.5,
        )
        .expect("feasible setup")
    }

    #[test]
    fn digest_of_the_json_is_the_digest() {
        let s = setup();
        for scheme in Scheme::ALL {
            let a = PlanArtifact::from_setup(&s, scheme, "fixture", "xscale");
            let json = a.to_json().expect("serializes");
            assert_eq!(
                PlanArtifact::digest_of(&json),
                a.digest().expect("digests"),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let s = setup();
        for scheme in Scheme::ALL {
            let a = PlanArtifact::from_setup(&s, scheme, "fixture", "xscale");
            let json = a.to_json().expect("serializes");
            let back = PlanArtifact::from_json(&json).expect("deserializes");
            assert_eq!(back.schema_version, PLAN_SCHEMA_VERSION);
            assert_eq!(back.scheme, scheme);
            let json2 = back.to_json().expect("re-serializes");
            assert_eq!(json, json2, "{} round trip", scheme.name());
        }
    }

    #[test]
    fn into_setup_preserves_the_plan_verbatim() {
        let s = setup();
        let a = PlanArtifact::from_setup(&s, Scheme::Gss, "fixture", "xscale");
        let json = a.to_json().expect("serializes");
        let back = PlanArtifact::from_json(&json).expect("deserializes");
        let s2 = back
            .into_setup(s.graph.clone(), s.model.clone())
            .expect("deserialized plan drives a setup");
        assert_eq!(s2.plan.num_procs, s.plan.num_procs);
        assert_eq!(s2.plan.deadline.to_bits(), s.plan.deadline.to_bits());
        assert_eq!(s2.plan.worst_total.to_bits(), s.plan.worst_total.to_bits());
        assert_eq!(s2.plan.lst.len(), s.plan.lst.len());
    }

    #[test]
    fn digest_is_deterministic_across_builds() {
        // Building the same artifact twice from scratch (fresh Setup,
        // fresh serialization) must produce the same digest — the
        // property the `pas serve` content-addressed cache rests on.
        for scheme in Scheme::ALL {
            let a = PlanArtifact::from_setup(&setup(), scheme, "fixture", "xscale");
            let b = PlanArtifact::from_setup(&setup(), scheme, "fixture", "xscale");
            let da = a.digest().expect("digests");
            assert_eq!(da, b.digest().expect("digests"), "{}", scheme.name());
            assert_eq!(da.len(), 64);
            assert!(da.chars().all(|c| c.is_ascii_hexdigit()));
            // Deserialization preserves the digest too.
            let back =
                PlanArtifact::from_json(&a.to_json().expect("serializes")).expect("deserializes");
            assert_eq!(back.digest().expect("digests"), da);
        }
    }

    #[test]
    fn digest_changes_when_any_field_changes() {
        let base = PlanArtifact::from_setup(&setup(), Scheme::Ss2, "fixture", "xscale");
        let d0 = base.digest().expect("digests");
        // Label fields.
        let mut m = base.clone();
        m.workload = "other".into();
        assert_ne!(m.digest().expect("digests"), d0, "workload label");
        let mut m = base.clone();
        m.platform = "transmeta".into();
        assert_ne!(m.digest().expect("digests"), d0, "platform label");
        // Scheme and derived parameters.
        let mut m = base.clone();
        m.scheme = Scheme::Gss;
        m.params = SchemeParams::Gss;
        assert_ne!(m.digest().expect("digests"), d0, "scheme");
        let mut m = base.clone();
        if let SchemeParams::Ss2 { switch_time, .. } = &mut m.params {
            *switch_time += 0.001;
        }
        assert_ne!(m.digest().expect("digests"), d0, "switch time");
        // Deep plan fields and the schema version.
        let mut m = base.clone();
        m.plan.deadline += 1.0;
        assert_ne!(m.digest().expect("digests"), d0, "plan deadline");
        let mut m = base.clone();
        m.schema_version += 1;
        assert_ne!(m.digest().expect("digests"), d0, "schema version");
    }

    #[test]
    fn mismatched_graph_is_rejected() {
        let s = setup();
        let a = PlanArtifact::from_setup(&s, Scheme::Gss, "fixture", "xscale");
        let other = Segment::task("solo", 2.0, 1.0)
            .lower()
            .expect("fixture lowers");
        let err = a
            .into_setup(other, ProcessorModel::xscale())
            .expect_err("wrong graph must be rejected");
        assert!(err.to_string().contains("plan"), "{err}");
    }
}
