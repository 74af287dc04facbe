//! Model zoo and synthetic data: every network the paper evaluates
//! (Table 2), buildable with ReLU, SiLU, or `x²` activations.
//!
//! * [`zoo`] — MLP (SecureML), LoLA CNN, LeNet-5 (CHET's large variant),
//!   AlexNet and VGG-16 (CIFAR-10 variants), the CIFAR ResNet family
//!   (20/32/44/56/110/1202), ImageNet-style ResNet-18/34/50,
//!   MobileNet-v1, and YOLO-v1 with a ResNet-34 backbone;
//! * [`data`] — synthetic calibration / evaluation data (the repo has no
//!   MNIST/CIFAR/ImageNet downloads; see README, "Substitutions" — the paper's
//!   validation metric, FHE-vs-cleartext precision, is preserved exactly);
//! * [`train`] — a pure-Rust SGD trainer for the MLP benchmark,
//!   demonstrating accuracy parity between cleartext and FHE inference on
//!   a learnable task.

pub mod data;
pub mod train;
pub mod zoo;

pub use zoo::{build, Act, ModelInfo};
