//! The worker side: a [`ShardHost`] assembles feature sets from chunk
//! frames, installs shards over them and answers shard queries.

use super::codec::{
    decode_features_chunk, decode_provision, decode_shard_query, encode_shard_status, FeaturesChunk,
};
use crate::engine::{KeywordIndex, QueryEngine};
use crate::executor::SpqExecutor;
use crate::model::FeatureObject;
use crate::sharded::Shard;
use crate::store::SharedDataset;
use parking_lot::Mutex;
use spq_mapreduce::remote::{
    FrameHandler, OP_FEATURES, OP_FEATURES_OK, OP_PROVISION, OP_PROVISION_OK, OP_SHARD_QUERY,
    OP_SHARD_RESULT, OP_SHARD_STATUS, OP_SHARD_STATUS_OK,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One assembled feature set: the array and the keyword index every
/// shard of the set hosted here shares.
struct FeatureSet {
    features: Arc<[FeatureObject]>,
    index: Arc<KeywordIndex>,
}

/// A feature set whose chunks are still arriving.
struct IncomingSet {
    fingerprint: u64,
    total: u32,
    /// Chunks appended so far (= the index of the chunk expected next).
    received: u32,
    features: Vec<FeatureObject>,
}

#[derive(Default)]
struct HostState {
    // BTreeMaps, not HashMaps: `status()` serializes the hosted shard
    // ids, and this module's wire output must never depend on hash order
    // (enforced by spq-lint's determinism/unordered-iter).
    // Behind `Arc`s so a query evaluates its shard outside the lock.
    shards: BTreeMap<u32, Arc<Shard>>,
    /// Assembled sets by fingerprint. The engines of `shards` hold clones
    /// of a set's two `Arc`s, so a set whose index has no other holder
    /// serves no shard (nor a query still running on a replaced one).
    sets: BTreeMap<u64, FeatureSet>,
    incoming: Option<IncomingSet>,
}

impl HostState {
    /// Drops every set no hosted engine holds a clone of.
    fn drop_unreferenced_sets(&mut self) {
        self.sets.retain(|_, set| Arc::strong_count(&set.index) > 1);
    }
}

/// What a worker answers to an [`OP_PROVISION`] naming a feature set it
/// does not hold; the manager recognizes it, ships the set and retries.
pub(super) const UNKNOWN_FEATURE_SET: &str = "unknown feature set";

/// What a healthy worker answers to an [`OP_SHARD_QUERY`] for a shard it
/// does not host; the manager recognizes it as a stale placement entry.
pub(super) const NOT_PROVISIONED: &str = "is not provisioned";

/// The worker-side shard host: a [`FrameHandler`] answering
/// [`OP_FEATURES`] (assemble a feature set from its chunk frames; on the
/// last chunk build the one feature array and the one keyword index every
/// shard of that set will share), [`OP_PROVISION`] (build a shard engine
/// from a shipped data slice and the data-space bounds over an assembled
/// set), [`OP_SHARD_QUERY`] (answer a query with a hosted shard's kernel
/// and reply with its gather records) and [`OP_SHARD_STATUS`] (report
/// which shards are hosted, so a re-admitting manager knows which copies
/// are still warm). This is what
/// the `spq-worker` binary and the in-process workers of
/// [`RemoteEngine::self_hosted`](super::RemoteEngine::self_hosted) serve.
#[derive(Default)]
pub struct ShardHost {
    state: Mutex<HostState>,
}

impl ShardHost {
    /// Creates an empty host; feature sets arrive via [`OP_FEATURES`]
    /// frames, shards via [`OP_PROVISION`] frames.
    pub fn new() -> Self {
        Self::default()
    }

    fn features(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let chunk =
            decode_features_chunk(payload).map_err(|e| format!("bad features payload: {e}"))?;
        if let Some(set) = self.append_chunk(chunk)? {
            // Last chunk: build the shared array and index outside the
            // lock, so shards already hosted keep answering meanwhile.
            let features: Arc<[FeatureObject]> = set.features.into();
            let index = Arc::new(KeywordIndex::build(&features));
            let mut state = self.state.lock();
            // At most one set waits for its first shard.
            state.drop_unreferenced_sets();
            state
                .sets
                .insert(set.fingerprint, FeatureSet { features, index });
        }
        Ok(Vec::new())
    }

    /// Appends `chunk` to the set being assembled and returns the set
    /// once its last chunk is in. Chunk 0 opens a set (abandoning one
    /// left half-shipped); any other chunk must be the next of the open
    /// set, or the assembly is abandoned with a typed error.
    fn append_chunk(&self, chunk: FeaturesChunk) -> Result<Option<IncomingSet>, String> {
        let mut state = self.state.lock();
        if chunk.index == 0 {
            state.incoming = Some(IncomingSet {
                fingerprint: chunk.fingerprint,
                total: chunk.total,
                received: 0,
                features: Vec::new(),
            });
        }
        let expected = state.incoming.as_mut().filter(|set| {
            (set.fingerprint, set.total, set.received)
                == (chunk.fingerprint, chunk.total, chunk.index)
        });
        let Some(set) = expected else {
            state.incoming = None;
            return Err(format!(
                "feature chunk {}/{} of set {:#018x} is out of sequence",
                chunk.index, chunk.total, chunk.fingerprint
            ));
        };
        set.features.extend(chunk.features);
        set.received += 1;
        Ok(if set.received == set.total {
            state.incoming.take()
        } else {
            None
        })
    }

    fn provision(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let p = decode_provision(payload).map_err(|e| format!("bad provision payload: {e}"))?;
        let (features, index) = {
            let state = self.state.lock();
            let set = state.sets.get(&p.fingerprint).ok_or_else(|| {
                format!(
                    "{UNKNOWN_FEATURE_SET} {:#018x} for shard {}",
                    p.fingerprint, p.shard_id
                )
            })?;
            (Arc::clone(&set.features), Arc::clone(&set.index))
        };
        let dataset = SharedDataset::with_shared_features(p.data, features);
        let engine = QueryEngine::with_shared_index(SpqExecutor::new(p.bounds), dataset, index);
        let shard = Arc::new(Shard {
            engine,
            id_to_index: Arc::new(p.id_to_index),
        });
        let mut state = self.state.lock();
        state.shards.insert(p.shard_id, shard);
        // A set goes when the last shard hosted over it was just replaced.
        state.drop_unreferenced_sets();
        Ok(Vec::new())
    }

    /// Clones shard `shard_id` out from under the lock, which is held for
    /// the lookup only: installs, status calls and feature chunks on
    /// other connections proceed while a query evaluates the shard.
    pub(super) fn shard(&self, shard_id: u32) -> Result<Arc<Shard>, String> {
        let shard = self.state.lock().shards.get(&shard_id).cloned();
        shard.ok_or_else(|| format!("shard {shard_id} {NOT_PROVISIONED} on this worker"))
    }

    fn query(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let (shard_id, query) =
            decode_shard_query(payload).map_err(|e| format!("bad shard query payload: {e}"))?;
        self.shard(shard_id)?
            .answer(&query)
            .map_err(|e| format!("shard {shard_id} query failed: {e}"))
    }

    fn status(&self) -> Vec<u8> {
        // BTreeMap keys are already ascending, the order the codec
        // documents.
        let hosted: Vec<u32> = self.state.lock().shards.keys().copied().collect();
        encode_shard_status(&hosted)
    }

    /// Number of shards currently hosted (for tests and diagnostics).
    pub fn hosted_shards(&self) -> usize {
        self.state.lock().shards.len()
    }

    /// Number of assembled feature sets currently held (for tests and
    /// diagnostics): one per distinct fingerprint among the hosted
    /// shards, plus at most one shipped ahead of its first shard.
    pub fn feature_sets(&self) -> usize {
        self.state.lock().sets.len()
    }
}

impl std::fmt::Debug for ShardHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHost")
            .field("hosted_shards", &self.hosted_shards())
            .field("feature_sets", &self.feature_sets())
            .finish()
    }
}

impl FrameHandler for ShardHost {
    fn handle(&self, opcode: u16, payload: &[u8]) -> Result<Option<(u16, Vec<u8>)>, String> {
        match opcode {
            OP_FEATURES => Ok(Some((OP_FEATURES_OK, self.features(payload)?))),
            OP_PROVISION => Ok(Some((OP_PROVISION_OK, self.provision(payload)?))),
            OP_SHARD_QUERY => Ok(Some((OP_SHARD_RESULT, self.query(payload)?))),
            OP_SHARD_STATUS => Ok(Some((OP_SHARD_STATUS_OK, self.status()))),
            _ => Ok(None),
        }
    }
}
