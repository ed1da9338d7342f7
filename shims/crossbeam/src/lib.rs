//! Empty placeholder package.
//!
//! The workspace runs its scoped threads on `std::thread::scope` and
//! calls nothing here. The package stays, at version 0.8.4, only because
//! the `stack` benchmark's `Cargo.lock` lists it as a dependency of
//! `tokensync-pipeline` and `tokensync-store`, and that benchmark builds
//! with `--locked`. The benchmark change of ROADMAP item 1 deletes this
//! package together with those two edges.
