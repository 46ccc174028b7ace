//! Fixture: seeded source-rule violations live in [`bad`].

#![forbid(unsafe_code)]

pub mod allowed;
pub mod bad;
