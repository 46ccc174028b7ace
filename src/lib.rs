//! Umbrella package hosting the workspace's examples and integration tests.

#![forbid(unsafe_code)]
#![deny(clippy::expect_used, clippy::panic)]

pub use commorder;
