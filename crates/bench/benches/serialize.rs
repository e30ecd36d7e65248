//! Criterion bench for the network codecs.
//!
//! `serialize`: the bit-exact network snapshot format. Every model version
//! `f_1 … f_5` is persisted and reloaded by the continuous pipeline, so
//! (de)serialization sits on the SVbTV hot path.
//!
//! `protocol_frame`: the daemon's two network-carrying wire frames — an
//! `Open` line and a `ModelUpdated` delta line — for a `[8,64,64,64,4]`
//! ReLU network (8,960 weights, about 185 KB of JSON each), encoded and
//! decoded the way client and server do. Before timing, a gate checks the
//! encoded bytes against a reference rendered with `{:?}` for every float.

use covern_absint::{BoxDomain, DomainKind};
use covern_bench::fig2_network;
use covern_campaign::DeltaEvent;
use covern_core::artifact::Margin;
use covern_nn::serialize::{from_json, to_json};
use covern_nn::{Activation, Network};
use covern_service::protocol::{decode, encode, Command, DeltaParams, OpenParams, Request};
use covern_tensor::Rng;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_serialize(c: &mut Criterion) {
    let small = fig2_network();
    let mut rng = Rng::seeded(11);
    let large =
        Network::random(&[16, 64, 64, 32, 4], Activation::Relu, Activation::Identity, &mut rng);

    let mut group = c.benchmark_group("serialize");
    group.sample_size(20);
    for (label, net) in [("fig2", &small), ("16x64x64x32x4", &large)] {
        let json = to_json(net).expect("serializes");
        group.bench_function(format!("to_json_{label}"), |b| {
            b.iter(|| to_json(net).expect("serializes"))
        });
        group.bench_function(format!("from_json_{label}"), |b| {
            b.iter(|| from_json(&json).expect("parses"))
        });
    }
    group.finish();
}

/// `[…]` of `{:?}`-formatted floats.
fn floats(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(","))
}

fn reference_network(net: &Network) -> String {
    let layers: Vec<String> = net
        .layers()
        .iter()
        .map(|l| {
            let w = l.weights();
            format!(
                "{{\"weights\":{{\"rows\":{},\"cols\":{},\"data\":{}}},\"bias\":{},\
                 \"activation\":\"{:?}\"}}",
                w.rows(),
                w.cols(),
                floats(w.as_slice()),
                floats(l.bias()),
                l.activation()
            )
        })
        .collect();
    format!("{{\"layers\":[{}]}}", layers.join(","))
}

fn reference_box(b: &BoxDomain) -> String {
    let dims: Vec<String> = b
        .intervals()
        .iter()
        .map(|iv| format!("{{\"lo\":{:?},\"hi\":{:?}}}", iv.lo(), iv.hi()))
        .collect();
    format!("{{\"dims\":[{}]}}", dims.join(","))
}

fn bench_protocol_frame(c: &mut Criterion) {
    let mut rng = Rng::seeded(11);
    let net =
        Network::random(&[8, 64, 64, 64, 4], Activation::Relu, Activation::Identity, &mut rng);
    let din = BoxDomain::from_bounds(&[(-1.0, 1.0); 8]).expect("unit box");
    let dout = BoxDomain::from_bounds(&[(-37.25, 41.125); 4]).expect("safety box");
    let tuned = net.perturbed(1e-4, &mut rng);
    let open = Request::new(
        1,
        Command::Open(OpenParams {
            label: "fleet".into(),
            network: net.clone(),
            din: din.clone(),
            dout: dout.clone(),
            domain: DomainKind::Box,
            margin: Margin::NONE,
            closed_loop: None,
        }),
    );
    let update = Request::new(
        2,
        Command::Delta(DeltaParams { session: 1, delta: DeltaEvent::ModelUpdated(tuned.clone()) }),
    );
    let open_line = encode(&open).expect("encodes");
    let update_line = encode(&update).expect("encodes");

    let open_reference = format!(
        "{{\"v\":\"covern-protocol-v1\",\"id\":1,\"cmd\":{{\"Open\":{{\"label\":\"fleet\",\
         \"network\":{},\"din\":{},\"dout\":{},\"domain\":\"Box\",\
         \"margin\":{{\"rel\":0.0,\"abs\":0.0}},\"closed_loop\":null}}}}}}",
        reference_network(&net),
        reference_box(&din),
        reference_box(&dout)
    );
    let update_reference = format!(
        "{{\"v\":\"covern-protocol-v1\",\"id\":2,\"cmd\":{{\"Delta\":{{\"session\":1,\
         \"delta\":{{\"ModelUpdated\":{}}}}}}}}}",
        reference_network(&tuned)
    );
    assert_eq!(open_line, open_reference, "Open frame differs from the {{:?}} reference");
    assert_eq!(
        update_line, update_reference,
        "ModelUpdated frame differs from the {{:?}} reference"
    );
    println!(
        "protocol_frame/gate: bytes match the {{:?}} reference (Open {} B, ModelUpdated {} B)",
        open_line.len(),
        update_line.len()
    );

    let mut group = c.benchmark_group("protocol_frame");
    group.sample_size(20);
    for (label, msg, line) in
        [("open", &open, &open_line), ("model_updated", &update, &update_line)]
    {
        group.bench_function(format!("encode_{label}"), |b| {
            b.iter(|| encode(black_box(msg)).expect("encodes"))
        });
        group.bench_function(format!("decode_{label}"), |b| {
            b.iter(|| decode::<Request>(black_box(line)).expect("decodes"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serialize, bench_protocol_frame);
criterion_main!(benches);
