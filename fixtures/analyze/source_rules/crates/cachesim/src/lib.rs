//! Fixture: the manifest does not opt into the workspace lint table.

/// Clean, so only the manifest finding anchors on this crate.
pub fn quiet() {}
