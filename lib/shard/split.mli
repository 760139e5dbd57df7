(** Offline dealer: split an encoded table into [n] shard tables.

    Every row of the source table is re-shared coefficient-wise with
    {!Secshare_core.Share.shard_server_share}: shard [i]'s table holds
    the same [pre]/[post]/[parent] numbers and a packed Shamir share
    of the server polynomial evaluated at x-coordinate [i].  The
    dealer's randomness is drawn from the seeded PRG keyed by the
    row's [pre], so a split is reproducible from the dealer seed — and
    the seed must be {e discarded} after the split (anyone holding it
    can strip the threshold masking down to the ordinary single-server
    share, which is still uniform but defeats the t-of-n property). *)

val split_table :
  Secshare_poly.Ring.t ->
  threshold:int ->
  shards:int ->
  dealer_seed:Secshare_prg.Seed.t ->
  source:Secshare_store.Node_table.t ->
  sinks:Secshare_store.Node_table.t array ->
  Manifest.t array
(** Re-share every row of [source] into the [shards] tables of [sinks]
    (index [i] receives x-coordinate [i + 1]'s shares) and return the
    per-shard manifests.  Rows are inserted in the
    source's insertion order, so shard tables scan in the same order
    the single-server table does.
    @raise Invalid_argument if [sinks] has the wrong length or the
    threshold geometry is invalid for the ring — unless
    [1 <= threshold <= shards < field order], checked before any row
    is written. *)

val split_numbers :
  threshold:int ->
  shards:int ->
  dealer_seed:Secshare_prg.Seed.t ->
  source:Secshare_store.Node_table.t ->
  sinks:Secshare_store.Node_table.t array ->
  unit
(** Shamir-share the numeric column: every 8-byte F_M cell of [source]
    becomes [shards] evaluations of a degree-[threshold - 1]
    polynomial over {!Secshare_core.Numeric}'s field (shard [i]
    receives x = [i + 1]), so any [threshold] shards recombine per-row
    values — and, by linearity, per-shard partial {e sums} — with
    [Numeric.Shamir.lambdas_at_zero] and [Numeric.Shamir.combine].  Use
    the same (discarded) dealer seed as {!split_table}: the numeric
    dealer draws are domain-separated from the polynomial ones.  Runs
    the same dealer loop and geometry check as {!split_table}.
    @raise Invalid_argument if [sinks] has the wrong length, the
    threshold geometry is invalid (checked before any row is written),
    or a cell is not a normalized field element. *)
