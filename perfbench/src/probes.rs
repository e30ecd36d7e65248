//! Per-layer probes on a workload's own inputs: the harness calls one
//! layer's public functions directly and times each call.

use crate::corpus;
use crate::output::Outcome;
use crate::stats::{median, ratio};
use covern_absint::bnb::{self, BnbConfig};
use covern_absint::box_domain::BoxDomain;
use covern_absint::transformer::AbstractState;
use covern_absint::DomainKind;
use covern_campaign::Scenario;
use covern_core::artifact::{BnbProofArtifact, Margin};
use covern_core::pipeline::DEFAULT_REFINE_SPLITS;
use covern_core::problem::VerificationProblem;
use covern_nn::Network;
use covern_service::protocol::{decode, encode, Command, DeltaParams, Request};
use covern_service::DiskStore;
use covern_tensor::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Distinct networks of a corpus, base models first (at most `limit`).
fn distinct_networks(corpus: &[Scenario], limit: usize) -> Vec<(Network, BoxDomain)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for s in corpus.iter().filter(|s| s.closed_loop.is_none()) {
        if out.len() < limit && seen.insert(covern_nn::serialize::content_hash(&s.network)) {
            out.push((s.network.clone(), s.din.clone()));
        }
    }
    out
}

/// `tensor.interval_matvec_us`: the fused interval matvec on the widest
/// layer of the corpus, per call.
pub fn interval_matvec(corpus: &[Scenario], out: &mut Outcome) {
    let nets = distinct_networks(corpus, 1);
    let Some((net, _)) = nets.first() else { return };
    let layer =
        net.layers().iter().max_by_key(|l| l.in_dim() * l.out_dim()).expect("networks have layers");
    let split = layer.split_weights();
    let lo = vec![-1.0; layer.in_dim()];
    let hi = vec![1.0; layer.in_dim()];
    let (mut lo_out, mut hi_out) = (vec![0.0; layer.out_dim()], vec![0.0; layer.out_dim()]);
    const CALLS: usize = 2_000;
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                split.fused_interval_matvec(
                    black_box(&lo),
                    black_box(&hi),
                    layer.bias(),
                    &mut lo_out,
                    &mut hi_out,
                );
                black_box(&lo_out);
            }
            t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    out.set("tensor.interval_matvec_us", median(&samples).unwrap_or(0.0));
}

/// `absint.layer_{box,symbolic,zonotope}_us`: `AbstractState::through_layer`
/// per network layer, over the corpus's base models.
pub fn layer_transformers(corpus: &[Scenario], out: &mut Outcome) {
    let nets = distinct_networks(corpus, 4);
    for (kind, name) in [
        (DomainKind::Box, "absint.layer_box_us"),
        (DomainKind::Symbolic, "absint.layer_symbolic_us"),
        (DomainKind::Zonotope, "absint.layer_zonotope_us"),
    ] {
        let mut samples = Vec::new();
        for _ in 0..5 {
            for (net, din) in &nets {
                let mut state = AbstractState::from_box(kind, din);
                for layer in net.layers() {
                    let t = Instant::now();
                    state = state.through_layer(layer).expect("transformer on a valid network");
                    samples.push(t.elapsed().as_secs_f64() * 1e6);
                }
                black_box(&state);
            }
        }
        out.set(name, median(&samples).unwrap_or(0.0));
    }
}

/// `nn.{encode,decode}_ms` and `nn.snapshot_kb`: bit-exact JSON of the
/// corpus's networks. Returns whether every round trip was bit-exact.
pub fn network_codec(corpus: &[Scenario], out: &mut Outcome) -> bool {
    let nets: Vec<&Network> = crate::corpus::networks(corpus).into_iter().take(16).collect();
    let (mut enc, mut dec, mut kib) = (Vec::new(), Vec::new(), Vec::new());
    let mut exact = true;
    for net in nets {
        for _ in 0..3 {
            let t = Instant::now();
            let json = covern_nn::serialize::to_json(net).expect("network encodes");
            enc.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let back = covern_nn::serialize::from_json(&json).expect("network decodes");
            dec.push(t.elapsed().as_secs_f64() * 1e3);
            kib.push(json.len() as f64 / 1024.0);
            exact &= covern_nn::serialize::content_hash(&back)
                == covern_nn::serialize::content_hash(net);
        }
    }
    out.set("nn.encode_ms", median(&enc).unwrap_or(0.0));
    out.set("nn.decode_ms", median(&dec).unwrap_or(0.0));
    out.set("nn.snapshot_kb", median(&kib).unwrap_or(0.0));
    exact
}

/// `service.{encode,decode}_us`: protocol lines of the corpus's deltas.
pub fn protocol_codec(corpus: &[Scenario], out: &mut Outcome) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let deltas = corpus.iter().flat_map(|s| s.events.iter()).take(48);
    for (i, delta) in deltas.enumerate() {
        let request = Request::new(
            i as u64,
            Command::Delta(DeltaParams { session: 1, delta: delta.clone() }),
        );
        let t = Instant::now();
        let line = encode(&request).expect("request encodes");
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let back: Request = decode(&line).expect("request decodes");
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(back);
    }
    out.set("service.encode_us", median(&enc).unwrap_or(0.0));
    out.set("service.decode_us", median(&dec).unwrap_or(0.0));
}

/// `cluster.store_{put,get}_us`: a fresh `DiskStore` under `dir` on the
/// given blobs. Returns whether every blob read back intact.
pub fn disk_store(blobs: &[Vec<u8>], dir: &std::path::Path, out: &mut Outcome) -> bool {
    let _ = std::fs::remove_dir_all(dir);
    let store = DiskStore::open(dir).expect("scratch store directory");
    let (mut puts, mut gets) = (Vec::new(), Vec::new());
    let mut intact = true;
    for (i, blob) in blobs.iter().enumerate() {
        let key = (i as u128) << 64 | 0x5eed;
        let t = Instant::now();
        store.put_keyed(key, blob);
        puts.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let back = store.get(key);
        gets.push(t.elapsed().as_secs_f64() * 1e6);
        intact &= back.as_deref() == Some(blob.as_slice());
    }
    let _ = std::fs::remove_dir_all(dir);
    out.set("cluster.store_put_us", median(&puts).unwrap_or(0.0));
    out.set("cluster.store_get_us", median(&gets).unwrap_or(0.0));
    intact
}

/// `core.stage_full_ms` and `absint.bnb_*` where the workload itself did
/// not reach full re-verification: re-proof instances (wide low-input
/// heads whose `Dout` is the refined symbolic hull plus 0.2%) verified
/// once, fine-tuned, then re-verified warm from the original partition,
/// as the pipeline's fallback does on one thread. Returns whether every
/// warm re-proof agreed with a cold one.
pub fn full_reverification(seed: u64, out: &mut Outcome) -> bool {
    let (domain, margin) = (DomainKind::Symbolic, Margin::standard());
    let cfg = BnbConfig::new(domain, DEFAULT_REFINE_SPLITS).with_checkpoint_collection(true);
    let (mut full_ms, mut bnb_ms) = (Vec::new(), Vec::new());
    let (mut splits, mut revalidated, mut reseeded) = (0, 0, 0);
    let mut agree = true;
    let families = corpus::reproof_families(seed);
    for (i, fam) in families.iter().enumerate() {
        let base = VerificationProblem::new(fam.net.clone(), fam.din.clone(), fam.dout.clone())
            .expect("re-proof instance");
        let (_, original) = base
            .verify_full_seeded(domain, DEFAULT_REFINE_SPLITS, margin, 1, None, None)
            .expect("original verification");
        let tuned = fam.net.perturbed(1e-6, &mut Rng::seeded(seed ^ (i as u64 + 1)));
        let problem = VerificationProblem::new(tuned, fam.din.clone(), fam.dout.clone())
            .expect("fine-tuned instance");
        let warm = original
            .bnb_proof
            .as_ref()
            .filter(|p| p.applies_to(problem.network(), problem.din(), problem.dout(), domain));
        let t = Instant::now();
        let (report, _) = problem
            .verify_full_seeded(
                domain,
                DEFAULT_REFINE_SPLITS,
                margin,
                1,
                warm,
                original.state.as_ref(),
            )
            .expect("warm re-verification");
        full_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let warm_bnb = bnb::decide_with_checkpoint(
            problem.network(),
            problem.din(),
            problem.dout(),
            &cfg,
            warm.map(BnbProofArtifact::checkpoint),
            None,
        )
        .expect("warm branch and bound");
        bnb_ms.push(t.elapsed().as_secs_f64() * 1e3);
        splits += warm_bnb.splits;
        revalidated += warm_bnb.leaves_revalidated;
        reseeded += warm_bnb.leaves_reseeded;
        let (cold, _) = problem
            .verify_full_seeded(domain, DEFAULT_REFINE_SPLITS, margin, 1, None, None)
            .expect("cold re-verification");
        agree &= cold.outcome == report.outcome;
    }
    out.fill("core.stage_full_ms", median(&full_ms).unwrap_or(0.0));
    out.fill("absint.bnb_ms", median(&bnb_ms).unwrap_or(0.0));
    out.fill("absint.bnb_splits_per_delta", ratio(splits as f64, families.len() as f64));
    out.fill(
        "absint.bnb_revalidated_share",
        ratio(revalidated as f64, (revalidated + reseeded) as f64),
    );
    agree
}
