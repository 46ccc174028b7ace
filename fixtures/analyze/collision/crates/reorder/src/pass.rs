//! A typed receiver picks one `width` despite the name collision.

use crate::graph::Csr;

/// Resolves `m.width()` to `Csr::width` alone: the receiver's type
/// comes from the parameter annotation, not the bare method name.
pub fn reorder(m: &Csr) -> usize {
    m.width()
}

/// Resolves `Csr::width(m)` to the inherent `Csr::width`: Rust binds an
/// inherent method before a trait method of the same name.
pub fn reorder_qualified(m: &Csr) -> usize {
    Csr::width(m)
}
