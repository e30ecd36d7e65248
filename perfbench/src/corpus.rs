//! Seeded workload inputs. Everything here is a pure function of the seed;
//! the program under test receives only the generated scenarios.

use covern_absint::box_domain::BoxDomain;
use covern_absint::reach::reach_boxes;
use covern_absint::refine::refined_output_box;
use covern_absint::DomainKind;
use covern_campaign::{closed_loop_scenarios, DeltaEvent, Scenario};
use covern_core::artifact::Margin;
use covern_nn::{Activation, Network};
use covern_tensor::Rng;

/// Medium ReLU heads of the reuse fleet.
pub const FLEET_DIMS: [usize; 5] = [8, 64, 64, 64, 4];
/// Fine-tune families in the reuse fleet.
pub const FLEET_FAMILIES: usize = 12;
/// Delta events per fleet scenario (two of each kind).
pub const FLEET_EVENTS: usize = 6;

/// Low-input-dimension wide heads of the re-proof instances.
const REPROOF_DIMS: [usize; 5] = [2, 96, 96, 96, 1];
/// Re-proof instances the full-re-verification probe runs.
const REPROOF_FAMILIES: usize = 4;
/// Refinement leaves used to derive a re-proof family's tight property.
const REPROOF_HULL_LEAVES: usize = 768;

/// A stable mix of the master seed with two stream indices.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One deployed model family: base network and its original problem.
#[derive(Debug, Clone)]
pub struct Family {
    /// The base network every scenario of the family starts from.
    pub net: Network,
    /// Original input domain.
    pub din: BoxDomain,
    /// Safety set.
    pub dout: BoxDomain,
}

fn unit_box(dim: usize) -> BoxDomain {
    BoxDomain::from_bounds(&vec![(-1.0, 1.0); dim]).expect("unit box")
}

/// The reuse fleet's families: `Dout` is the box reach of the base model
/// plus a quarter of its width of slack, so the box-domain state
/// abstraction establishes and small deltas stay provable by reuse.
pub fn fleet_families(seed: u64, count: usize) -> Vec<Family> {
    (0..count as u64).map(|f| fleet_family(seed, f)).collect()
}

/// Family `f` of the reuse fleet (see [`fleet_families`]).
pub fn fleet_family(seed: u64, f: u64) -> Family {
    let mut rng = Rng::seeded(mix(seed, 1, f));
    let net = Network::random(&FLEET_DIMS, Activation::Relu, Activation::Identity, &mut rng);
    let din = unit_box(FLEET_DIMS[0]);
    let reach = reach_boxes(&net, &din, DomainKind::Box).expect("box reach").output().clone();
    let dout = reach.dilate(0.25 * reach.max_width() + 1.0);
    Family { net, din, dout }
}

/// Shrinks every interval of `b` by `eps` per side (clamped at the
/// midpoint): a slightly tightened, still generous property.
fn tighten(b: &BoxDomain, eps: f64) -> BoxDomain {
    let bounds: Vec<(f64, f64)> = b
        .intervals()
        .iter()
        .map(|iv| {
            let eps = eps.min(iv.width() * 0.5);
            (iv.lo() + eps, iv.hi() - eps)
        })
        .collect();
    BoxDomain::from_bounds(&bounds).expect("shrink keeps lo <= hi")
}

/// Batch `batch` of the reuse fleet: `scenarios` scenarios dealt
/// round-robin over `families`, each with `events` small deltas cycling
/// through all three kinds, followed by the two closed-loop lane-keeping
/// scenarios when `closed_loop` is set.
pub fn fleet_batch(
    seed: u64,
    batch: u64,
    scenarios: usize,
    events: usize,
    families: &[Family],
    closed_loop: bool,
) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(scenarios + 2);
    for i in 0..scenarios {
        let f = i % families.len();
        let fam = &families[f];
        let mut rng = Rng::seeded(mix(seed, 2 + batch, i as u64));
        let (mut net, mut din, mut dout) = (fam.net.clone(), fam.din.clone(), fam.dout.clone());
        let mut stream = Vec::with_capacity(events);
        for e in 0..events {
            match (i + e) % 3 {
                0 => {
                    din = din.dilate(rng.uniform(0.005, 0.03));
                    stream.push(DeltaEvent::DomainEnlarged(din.clone()));
                }
                1 => {
                    net = net.perturbed(1e-4, &mut rng);
                    stream.push(DeltaEvent::ModelUpdated(net.clone()));
                }
                _ => {
                    dout = if e % 2 == 0 {
                        dout.dilate(rng.uniform(0.01, 0.1))
                    } else {
                        tighten(&dout, 0.005)
                    };
                    stream.push(DeltaEvent::PropertyChanged(dout.clone()));
                }
            }
        }
        out.push(Scenario {
            name: format!("fleet-b{batch}-s{i:03}-f{f}"),
            network: fam.net.clone(),
            din: fam.din.clone(),
            dout: fam.dout.clone(),
            domain: DomainKind::Box,
            margin: Margin::standard(),
            closed_loop: None,
            events: stream,
        });
    }
    if closed_loop {
        out.extend(closed_loop_scenarios(mix(seed, 3, batch)));
    }
    out
}

/// Re-proof instances: `Dout` is the refined symbolic hull of the base
/// model plus 0.2% headroom, far too tight for the single-pass state
/// abstraction, so every verification ends in branch and bound.
pub fn reproof_families(seed: u64) -> Vec<Family> {
    (0..REPROOF_FAMILIES as u64)
        .map(|f| {
            let mut rng = Rng::seeded(mix(seed, 11, f));
            let net =
                Network::random(&REPROOF_DIMS, Activation::Relu, Activation::Identity, &mut rng);
            let din = unit_box(REPROOF_DIMS[0]);
            let hull = refined_output_box(&net, &din, DomainKind::Symbolic, REPROOF_HULL_LEAVES)
                .expect("refined hull");
            let bounds: Vec<(f64, f64)> = hull
                .intervals()
                .iter()
                .map(|iv| {
                    let headroom = 0.002 * iv.width().max(1.0);
                    (iv.lo() - headroom, iv.hi() + headroom)
                })
                .collect();
            let dout = BoxDomain::from_bounds(&bounds).expect("target box");
            Family { net, din, dout }
        })
        .collect()
}

/// Total delta events in a corpus.
pub fn delta_count(corpus: &[Scenario]) -> usize {
    corpus.iter().map(|s| s.events.len()).sum()
}

/// The networks a corpus ships: every base model and every fine-tune.
pub fn networks(corpus: &[Scenario]) -> Vec<&Network> {
    let mut out = Vec::new();
    for s in corpus {
        out.push(&s.network);
        for e in &s.events {
            if let DeltaEvent::ModelUpdated(n) = e {
                out.push(n);
            }
        }
    }
    out
}
