"""Generic cross-tile band fixed point with object-store state.

Every raster family that iterates a per-tile solve to a cross-tile
fixed point (flow accumulation variants, stream topology, cost
distance, isobasins, branch length, ...) shares one shape:

  1. per-tile state (elevation / pointer / masks) that NEVER changes
     across rounds;
  2. a per-round solve that, given the current cross-tile messages,
     recomputes the tile and emits new O(boundary) messages;
  3. convergence when the messages stop changing;
  4. a final extraction of the per-tile payload.

A driver loop of ``map_batches(solve).to_pandas()`` that returns each
tile's FULL arrays and re-``ray.put``s the whole inflow dict moves
O(cells) through the driver every round. This harness avoids that:
per-tile state is built ONCE by a task and persists in the object
store; each round, stateless tasks return ONLY the messages; the full
payload is extracted ONCE after convergence.

Scale note: message routing is DECENTRALIZED.
Each round task returns its outbox as an object-store ref plus a tiny
content digest; the next round's tile tasks receive their NEIGHBOR
tiles' outbox REFS and filter out the messages addressed to them
worker-side (object-store peer-to-peer — on a multi-node cluster the
bytes move node-to-node, never through the driver). The driver folds
ONLY the O(tiles) digest tuple per round — the convergence signature —
regardless of message size.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Callable

import ray

Inbox = list[tuple[int, Any]]          # sorted (sender_tid, message)
Outbox = dict[int, Any]                # {target_tid: message}


def _digest(outbox: Outbox) -> bytes:
    """Canonical content digest of an outbox. Solves are deterministic,
    so two rounds at the fixed point produce byte-identical pickles of
    the target-sorted items."""
    return hashlib.sha256(
        pickle.dumps(sorted(outbox.items(), key=lambda kv: kv[0]))
    ).digest()


_EMPTY_DIGEST = _digest({})


def _inbox_from(senders: list[int], outboxes: list[Outbox],
                tid: int) -> Inbox:
    """Rebuild tile ``tid``'s inbox from its neighbours' whole outboxes
    — the same (sender-sorted) list the old driver fold produced."""
    box: Inbox = [(s, ob[tid]) for s, ob in zip(senders, outboxes)
                  if ob is not None and tid in ob]
    box.sort(key=lambda sm: sm[0])
    return box


@ray.remote
def _fp_state(build: Callable, tid: int):
    return build(tid)


@ray.remote(num_returns=2)
def _fp_round(solve: Callable, state, tid: int, n_tiles: int,
              allowed: frozenset, senders: list[int],
              *outboxes: Outbox):
    out = solve(state, tid, _inbox_from(list(senders), list(outboxes),
                                        tid))
    # A message addressed to an IN-RANGE tile outside the declared
    # stencil (including tid itself) would be silently lost by the
    # receivers' neighbor filter — fail loudly instead (a too-small
    # stencil is a caller bug, not a legal drop).
    bad = [t for t in out if 0 <= t < n_tiles and t not in allowed]
    if bad:
        raise RuntimeError(
            f"tile {tid} emitted messages to non-neighbor tiles {bad}; "
            "widen the neighbors= stencil passed to tile_fixed_point")
    return out, _digest(out)


@ray.remote
def _fp_extract(extract: Callable, state, tid: int, senders: list[int],
                *outboxes: Outbox):
    return extract(state, tid, _inbox_from(list(senders),
                                           list(outboxes), tid))


def tile_fixed_point(n_tiles: int,
                     build: Callable[[int], Any],
                     solve: Callable[[Any, int, Inbox], Outbox],
                     extract: Callable[[Any, int, Inbox], Any],
                     max_rounds: int = 64,
                     label: str = "tile fixed point",
                     neighbors: Callable[[int], list[int]] | None = None
                     ) -> list:
    """Run ``solve`` over all tiles to a cross-tile message fixed point.

    - ``build(tid)`` -> per-tile state; runs ONCE per tile, worker-side;
      the result stays in the object store for every later round. Big
      broadcast inputs should be passed as ``ObjectRef``s captured in
      the closure and ``ray.get``-ed inside build, so each tile fetches
      only its share.
    - ``solve(state, tid, inbox)`` -> outbox ``{target_tid: message}``.
      Messages must be O(boundary) small. ``inbox`` is a list of
      ``(sender_tid, message)`` sorted by sender (``[]`` on the first
      round).
    - ``extract(state, tid, inbox)`` -> final per-tile payload; called
      once with the converged inbox.
    - ``neighbors(tid)`` -> the tids that may ever MESSAGE ``tid``.
      Default: the band topology most callers use (``[tid-1, tid+1]``);
      pass an explicit function for wider stencils (e.g. all-pairs for
      solvers that route results straight back to a walk's origin
      band). A message to an OUT-OF-RANGE target is silently dropped —
      exactly like the old out-of-range drop — but a message to an
      in-range tile outside the declared stencil raises RuntimeError
      worker-side (it would otherwise vanish and corrupt the result).
      Self-messages (``target == tid``) are NOT supported — the stencil
      excludes ``tid`` from its own sender set, so a self-message also
      raises; carry round-local state in the tile ``state`` instead.

    Per round, tile ``tid``'s task receives its neighbours' outbox
    REFS (fetched peer-to-peer from the object store) and filters its
    own messages worker-side; the driver folds only the O(tiles)
    digest tuple. Convergence: consecutive rounds' digest tuples are
    equal (solves are deterministic, so equal inputs reproduce the
    fixed point exactly). Raises RuntimeError at ``max_rounds``.
    """
    if neighbors is None:
        def neighbors(tid: int) -> list[int]:
            return [t for t in (tid - 1, tid + 1) if 0 <= t < n_tiles]

    nbrs = {t: [u for u in neighbors(t) if 0 <= u < n_tiles and u != t]
            for t in range(n_tiles)}
    # targets tile t may legally message = tiles whose sender set has t
    allowed = {t: frozenset(u for u in range(n_tiles) if t in nbrs[u])
               for t in range(n_tiles)}
    states = [_fp_state.remote(build, t) for t in range(n_tiles)]
    out_refs: list = [None] * n_tiles
    # the old loop's initial signature was the all-empty inbox set, so
    # a first round that emits nothing converges immediately
    prev_digest = tuple([_EMPTY_DIGEST] * n_tiles)
    for _ in range(max_rounds):
        new_refs: list = []
        dig_refs: list = []
        for t in range(n_tiles):
            senders = [u for u in nbrs[t] if out_refs[u] is not None]
            obs = [out_refs[u] for u in senders]
            o_ref, d_ref = _fp_round.remote(solve, states[t], t,
                                            n_tiles, allowed[t],
                                            senders, *obs)
            new_refs.append(o_ref)
            dig_refs.append(d_ref)
        digest = tuple(ray.get(dig_refs))   # O(tiles) × 32 bytes
        if digest == prev_digest:
            break
        out_refs, prev_digest = new_refs, digest
    else:  # pragma: no cover - cap reached
        raise RuntimeError(f"{label} did not converge in {max_rounds} rounds")
    finals = []
    for t in range(n_tiles):
        senders = [u for u in nbrs[t] if out_refs[u] is not None]
        obs = [out_refs[u] for u in senders]
        finals.append(_fp_extract.remote(extract, states[t], t,
                                         senders, *obs))
    return ray.get(finals)


def updn_fixed_point(spec, build, kernel, final,
                     max_rounds: int = 64, label: str = "band fixed point",
                     combine: str = "add"):
    """Vertical-band specialization of ``tile_fixed_point`` for the
    common up/dn inflow pattern shared by every flow-accumulation-style
    solver (tiles are full-width row bands; flow crosses only the top /
    bottom edges):

    - ``build(tid)`` -> per-tile state (object-store resident);
    - ``kernel(state, tid, inflow)`` -> ``(tile_result, up, dn)`` where
      ``up``/``dn`` map boundary column -> amount leaving vertically;
    - ``final(state, tid, tile_result)`` -> per-tile payload.

    ``combine`` is how a boundary cell merges message amounts: "add"
    (flow accumulation / flux) or "max" (max-upslope-length style).

    The inflow array is rebuilt from the inbox exactly the way the old
    driver loops did (sender tid-1's dn into row 0 first, then sender
    tid+1's up into the last row), so float accumulation order — and
    therefore every oracle-replayed bit — is unchanged."""
    import numpy as np

    def _inflow(tid: int, inbox: Inbox) -> "np.ndarray":
        r0, r1 = spec.band(tid)
        h = r1 - r0
        infl = np.zeros((h, spec.cols))
        for sender, msg in inbox:       # sorted: tid-1 before tid+1
            row = 0 if sender == tid - 1 else -1
            for col, amt in msg.items():
                if combine == "max":
                    infl[row, int(col)] = max(infl[row, int(col)], amt)
                else:
                    infl[row, int(col)] += amt
        return infl

    def solve(state, tid: int, inbox: Inbox) -> Outbox:
        _, up, dn = kernel(state, tid, _inflow(tid, inbox))
        out: Outbox = {}
        if up:
            out[tid - 1] = up           # up-flow enters the band above
        if dn:
            out[tid + 1] = dn           # dn-flow enters the band below
        return out

    def extract(state, tid: int, inbox: Inbox):
        res, _, _ = kernel(state, tid, _inflow(tid, inbox))
        return final(state, tid, res)

    return tile_fixed_point(spec.n_tiles, build, solve, extract,
                            max_rounds, label)
