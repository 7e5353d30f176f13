//! The lint policy's negative corpus: one module per contract, linted
//! under the same crate-root attributes as pcs-store and the same
//! clippy.toml as pcs-core (a link to it). `check.sh` asserts that each
//! `bad_*` module raises exactly its lint, as often as expected.txt
//! says, and that every other module raises nothing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]

pub mod allow_block;
pub mod allow_line;
pub mod bad_allow_attribute;
pub mod bad_allow_malformed;
pub mod bad_allow_unused;
pub mod bad_error_enum;
pub mod bad_instant_in_loop;
pub mod bad_no_index;
pub mod bad_no_panic;
pub mod bad_query_hash;
pub mod bad_query_hash_fx;
pub mod bad_store_cast;
pub mod cfg_test;
pub mod clean;
