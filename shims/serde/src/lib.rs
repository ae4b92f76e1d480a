//! Offline stand-in for `serde`.
//!
//! No serializer in the workspace consumes these traits any more; a few
//! `gass-core` types still derive them. What is provided is the
//! serializer-generic *API shape*, not serde's full data model: the
//! [`Serialize`] trait, the [`ser`] module with [`ser::Serializer`] and the
//! seven compound-serializer traits, and impls of [`Serialize`] for the
//! primitive/std types the records contain. [`Deserialize`] is a marker —
//! the workspace derives it for forward compatibility but its binary
//! persistence goes through `gass-core::persist`, never through serde.

pub mod ser;

pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Marker for types that could be deserialized. Never invoked in this
/// workspace; exists so `#[derive(Deserialize)]` has a trait to target.
pub trait Deserialize<'de>: Sized {}

/// Marker mirroring serde's owned-deserialization convenience bound.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
