//! Offline drop-in replacement for the one `crossbeam` item this
//! workspace uses: [`utils::CachePadded`].
//!
//! The build environment has no network access, so the real crate cannot
//! be fetched. Scoped threads come from `std::thread::scope`.

pub mod utils;
