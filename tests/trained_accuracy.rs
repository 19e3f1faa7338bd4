//! End-to-end task accuracy: a trained CNN's classification performance
//! must survive the analog photonic substrate (experiment E1's task-level
//! form; see EXPERIMENTS.md "Analog precision").

use pcnna::cnn::metrics::argmax;
use pcnna::cnn::train::{orientation_dataset, TinyConvNet};
use pcnna::core::functional::FunctionalOptions;
use pcnna::core::{Pcnna, PcnnaConfig};

fn trained_net() -> TinyConvNet {
    let mut net = TinyConvNet::new(12, 4, 2, 7).unwrap();
    let train_set = orientation_dataset(100, 12, 11);
    net.train(&train_set, 12, 0.05).unwrap();
    net
}

fn photonic_accuracy(
    net: &TinyConvNet,
    test: &[(pcnna::cnn::tensor::Tensor, usize)],
    opts: &FunctionalOptions,
) -> f64 {
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    let mut correct = 0usize;
    for (img, want) in test {
        let run = accel
            .run_functional(&net.geometry, img, &net.kernels, opts)
            .unwrap();
        let logits = net.logits_from_conv_output(&run.output).unwrap();
        if argmax(&logits) == Some(*want) {
            correct += 1;
        }
    }
    correct as f64 / test.len() as f64
}

#[test]
fn digital_baseline_is_strong() {
    let net = trained_net();
    let test = orientation_dataset(40, 12, 99);
    let acc = net.accuracy(&test).unwrap();
    assert!(acc > 0.9, "digital accuracy {acc}");
}

#[test]
fn photonic_ideal_retains_accuracy() {
    let net = trained_net();
    let test = orientation_dataset(30, 12, 99);
    let digital = net.accuracy(&test).unwrap();
    let photonic = photonic_accuracy(&net, &test, &FunctionalOptions::default());
    assert!(
        photonic >= digital - 0.1,
        "photonic {photonic} vs digital {digital}"
    );
}

#[test]
fn photonic_noisy_retains_accuracy() {
    let net = trained_net();
    let test = orientation_dataset(30, 12, 99);
    let digital = net.accuracy(&test).unwrap();
    let noisy = photonic_accuracy(
        &net,
        &test,
        &FunctionalOptions {
            noise: true,
            seed: 5,
            ..FunctionalOptions::default()
        },
    );
    assert!(
        noisy >= digital - 0.15,
        "noisy photonic {noisy} vs digital {digital}"
    );
}
