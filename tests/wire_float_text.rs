//! Tier-1 run of the JSON shim's float-text tests: the writer is
//! byte-identical to `{:?}` and the reader returns the written bits. The
//! source lives with the shim, where `cargo test -p serde_json` runs it.

#[path = "../crates/shims/serde_json/tests/float_text.rs"]
mod float_text;
