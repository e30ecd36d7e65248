//! The verdict gate: every verdict a run observes must equal the
//! in-process engine's canonical verdict for the same scenario.

use covern_campaign::report::{EventRecord, ScenarioReport};
use covern_campaign::{CampaignConfig, CampaignEngine, CampaignReport, Scenario};

/// Timing-free identity of one verdict: kind, deciding strategy, outcome
/// and the witness bits.
pub fn event_key(e: &EventRecord) -> String {
    let witness = e.witness.as_ref().map_or(String::new(), |w| {
        w.iter().map(|x| format!("{:016x}", x.to_bits())).collect::<Vec<_>>().join(",")
    });
    format!("{}/{}/{}/{}", e.kind, e.strategy, e.outcome, witness)
}

/// Timing-free identity of a scenario's verdict sequence.
pub fn scenario_key(s: &ScenarioReport) -> String {
    let events: Vec<String> = s.events.iter().map(event_key).collect();
    format!(
        "{}|{}|{}|{}",
        s.name,
        s.initial_outcome,
        s.error.as_deref().unwrap_or(""),
        events.join(";")
    )
}

/// Whether an outcome string is a decision (proved or refuted).
pub fn is_decided(outcome: &str) -> bool {
    outcome == "proved" || outcome == "refuted"
}

/// Decided operations (open plus deltas) in a scenario trajectory.
pub fn decided_ops(s: &ScenarioReport) -> u64 {
    u64::from(s.error.is_none() && is_decided(&s.initial_outcome))
        + s.events.iter().filter(|e| is_decided(&e.outcome)).count() as u64
}

/// The in-process engine's report on `corpus` at thread budget
/// `threads`: the reference every other path is checked against.
pub fn reference_report(corpus: &[Scenario], threads: usize) -> CampaignReport {
    let engine = CampaignEngine::new(CampaignConfig { threads, ..CampaignConfig::default() });
    engine.run(corpus).expect("reference campaign over a non-empty corpus")
}

/// The canonical per-scenario verdict keys of `corpus`, from a fresh
/// in-process engine at thread budget `threads`.
pub fn reference_keys(corpus: &[Scenario], threads: usize) -> Vec<String> {
    reference_report(corpus, threads).scenarios.iter().map(scenario_key).collect()
}

/// Running tally of the gate over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted: opens plus deltas.
    pub attempted: u64,
    /// Operations answered proved or refuted.
    pub decided: u64,
    /// Scenario trajectories whose verdicts differ from the reference.
    pub mismatched: u64,
    /// Operations that errored (transport, protocol or verifier errors).
    pub errors: u64,
}

impl Tally {
    /// Adds one observed trajectory, checked against its reference key.
    pub fn observe(&mut self, s: &ScenarioReport, expected_ops: u64, reference: &str) {
        self.attempted += expected_ops;
        self.decided += decided_ops(s);
        if s.error.is_some() {
            self.errors += expected_ops.saturating_sub(1 + s.events.len() as u64).max(1);
        }
        if scenario_key(s) != reference {
            self.mismatched += 1;
        }
    }

    /// Share of attempted operations decided in agreement with the
    /// reference; any mismatch voids the whole run.
    pub fn decided_share(&self) -> f64 {
        if self.mismatched > 0 || self.attempted == 0 {
            0.0
        } else {
            self.decided as f64 / self.attempted as f64
        }
    }

    /// Operations counted as failed: errors, plus every operation of the
    /// run when any trajectory mismatched.
    pub fn failed(&self) -> u64 {
        if self.mismatched > 0 {
            self.attempted
        } else {
            self.errors
        }
    }
}
