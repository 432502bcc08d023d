//! The worker side: a [`ShardHost`] assembles feature slices' kernel
//! state from chunk frames, installs shards over them and answers shard
//! queries.

use super::codec::{
    decode_provision, decode_shard_query, encode_shard_status, FeatureColumns, FeaturesChunkReader,
};
use crate::kernel::FeatureSide;
use crate::sharded::{index_by_id, DataSide, Shard};
use parking_lot::Mutex;
use spq_mapreduce::remote::{
    FrameHandler, OP_FEATURES, OP_FEATURES_OK, OP_PROVISION, OP_PROVISION_OK, OP_SHARD_QUERY,
    OP_SHARD_RESULT, OP_SHARD_STATUS, OP_SHARD_STATUS_OK,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A feature slice whose chunks are still arriving.
struct IncomingSet {
    fingerprint: u64,
    total: u32,
    /// Chunks appended so far (= the index of the chunk expected next).
    received: u32,
    columns: FeatureColumns,
}

#[derive(Default)]
struct HostState {
    // BTreeMaps, not HashMaps: `status()` serializes the hosted shard
    // ids, and this module's wire output must never depend on hash order
    // (enforced by spq-lint's determinism/unordered-iter).
    // Behind `Arc`s so a query evaluates its shard outside the lock.
    shards: BTreeMap<u32, Arc<Shard>>,
    /// Assembled feature slices, as kernel state, by fingerprint. The
    /// shards hold clones of these `Arc`s, so a slice with no other holder
    /// serves no shard (nor a query still running on a replaced one).
    sets: BTreeMap<u64, Arc<FeatureSide>>,
    /// Data sides by the content fingerprint of their provision's data
    /// block: every shard installed with the same data shares one.
    data: BTreeMap<u64, DataSide>,
    incoming: Option<IncomingSet>,
}

impl HostState {
    /// Drops every feature slice and data side no hosted shard holds.
    fn drop_unreferenced(&mut self) {
        self.sets.retain(|_, set| Arc::strong_count(set) > 1);
        self.data
            .retain(|_, side| Arc::strong_count(&side.grid) > 1);
    }
}

/// What a worker answers to an [`OP_PROVISION`] naming a feature set it
/// does not hold; the manager recognizes it, ships the set and retries.
pub(super) const UNKNOWN_FEATURE_SET: &str = "unknown feature set";

/// What a healthy worker answers to an [`OP_SHARD_QUERY`] for a shard it
/// does not host; the manager recognizes it as a stale placement entry.
pub(super) const NOT_PROVISIONED: &str = "is not provisioned";

/// The worker-side shard host: a [`FrameHandler`] answering
/// [`OP_FEATURES`] (assemble a feature slice's kernel state — its
/// keyword index's columns and its feature locations — from its chunk
/// frames by bulk copy; on the last chunk check the columns and keep them
/// as they are, building nothing), [`OP_PROVISION`]
/// (install a shard over an assembled slice and the shipped data objects,
/// which every shard with the same data block shares as one grid and id
/// map), [`OP_SHARD_QUERY`] (answer a query with a hosted shard's kernel
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
    /// Creates an empty host; feature slices arrive via [`OP_FEATURES`]
    /// frames, shards via [`OP_PROVISION`] frames.
    pub fn new() -> Self {
        Self::default()
    }

    fn features(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let bad = |e| format!("bad features payload: {e}");
        let chunk = FeaturesChunkReader::new(payload).map_err(bad)?;
        let mut set = self.take_incoming(&chunk)?;
        // Appended to the slice outside the lock; a chunk that does not
        // decode abandons the assembly, as one out of sequence does.
        chunk.read_into(&mut set.columns).map_err(bad)?;
        set.received += 1;
        if set.received < set.total {
            self.state.lock().incoming = Some(set);
            return Ok(Vec::new());
        }
        // Last chunk: check the columns outside the lock, so shards
        // already hosted keep answering meanwhile. Refused columns are
        // dropped with the assembly.
        let side = Arc::new(set.columns.install().map_err(bad)?);
        let mut state = self.state.lock();
        // At most one slice waits for its first shard.
        state.drop_unreferenced();
        state.sets.insert(set.fingerprint, side);
        Ok(Vec::new())
    }

    /// Takes the slice `chunk` continues out of the state, for the chunk
    /// to be appended to; [`features`](Self::features) puts it back unless
    /// the chunk was its last. Chunk 0 opens a slice (abandoning one left
    /// half-shipped); any other chunk must be the next of the open slice,
    /// or the assembly is abandoned with a typed error.
    fn take_incoming(&self, chunk: &FeaturesChunkReader) -> Result<IncomingSet, String> {
        let open = self.state.lock().incoming.take();
        if chunk.index == 0 {
            return Ok(IncomingSet {
                fingerprint: chunk.fingerprint,
                total: chunk.total,
                received: 0,
                columns: FeatureColumns::default(),
            });
        }
        open.filter(|set| {
            (set.fingerprint, set.total, set.received)
                == (chunk.fingerprint, chunk.total, chunk.index)
        })
        .ok_or_else(|| {
            format!(
                "feature chunk {}/{} of set {:#018x} is out of sequence",
                chunk.index, chunk.total, chunk.fingerprint
            )
        })
    }

    /// Installs a shard. The payload is checked and its data block
    /// fingerprinted first; the block's records are decoded only when
    /// this host holds no data side with that fingerprint.
    fn provision(&self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let p = decode_provision(payload).map_err(|e| format!("bad provision payload: {e}"))?;
        let (features, data) = {
            let state = self.state.lock();
            let features = state.sets.get(&p.fingerprint).cloned().ok_or_else(|| {
                format!(
                    "{UNKNOWN_FEATURE_SET} {:#018x} for shard {}",
                    p.fingerprint, p.shard_id
                )
            })?;
            (features, state.data.get(&p.data_fingerprint).cloned())
        };
        // A data block this host has not seen is decoded and bucketed
        // outside the lock.
        let data = match data {
            Some(data) => data,
            None => {
                let objects = p.data();
                let ids = objects.iter().enumerate().map(|(i, o)| (o.id, i as u32));
                let id_to_index = index_by_id(ids)
                    .map_err(|id| format!("duplicate data object id {id} in provision"))?;
                DataSide::new(p.bounds, &objects, id_to_index)
            }
        };
        let mut state = self.state.lock();
        let data = state.data.entry(p.data_fingerprint).or_insert(data);
        let shard = Arc::new(Shard::new(features, data));
        state.shards.insert(p.shard_id, shard);
        // A slice or data side goes when the last shard hosted over it was
        // just replaced.
        state.drop_unreferenced();
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
        let (records, _) = self
            .shard(shard_id)?
            .answer(&query)
            .map_err(|e| format!("shard {shard_id} query failed: {e}"))?;
        Ok(records)
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

    /// Number of assembled feature slices currently held (for tests and
    /// diagnostics): one per distinct fingerprint among the hosted
    /// shards, plus at most one shipped ahead of its first shard.
    pub fn feature_sets(&self) -> usize {
        self.state.lock().sets.len()
    }

    /// Number of data sides currently held (for tests and diagnostics):
    /// one per distinct data block among the hosted shards' provisions.
    pub fn data_sides(&self) -> usize {
        self.state.lock().data.len()
    }
}

impl std::fmt::Debug for ShardHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHost")
            .field("hosted_shards", &self.hosted_shards())
            .field("feature_sets", &self.feature_sets())
            .field("data_sides", &self.data_sides())
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
