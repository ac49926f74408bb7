// Package tcam models the ternary content-addressable memory found in
// PISA/RMT switch pipeline stages.
//
// A Table holds ternary entries over one or more key fields. Each field of an
// entry carries a value and a mask; a key matches when key & mask == value for
// every field. When several entries match, the table resolves the conflict by
// longest prefix match — the entry with the most total significant (masked)
// bits wins, mirroring the LPM resolution the paper relies on — with explicit
// priority and insertion order as tie-breakers.
//
// Capacity is a hard limit, as TCAM is the scarce resource whose footprint
// ADA exists to minimise. The table also counts row writes so the
// control-plane overhead accounting (paper Table II, Fig 9) can be derived
// from real operation counts rather than estimates.
//
// # One lookup path
//
// A Store has exactly one data-plane lookup, LookupIndexBatch: packed key
// tuples resolve to dense ordinals of one immutable compiled snapshot, plus
// the Payloads view that turns an ordinal into its action data (or, for
// control-plane callers, its *Entry). A single key is a batch of one. Table
// and both tiers of a TieredStore compile their rows with the same
// buildIndex (index.go), which picks a range set, a product grid, a trie,
// or a linear scan per entry set; tenant slices translate keys and resolve
// against their physical table. Table.LookupAll is the uncompiled reference
// scan the differential tests compare every form against.
//
// # The generation/version contract
//
// Every store in this package (and tenant slices outside it) exposes up to
// three monotonic counters with deliberately different blind spots. This
// file is the single normative statement of what each one means; other
// packages reference it instead of restating the rules.
//
// # Generation — bulk commits only
//
// Table.Generation advances by one each time a bulk reconciliation commits
// successfully: ApplyRowsAtomic (which is also the audit layer's repair)
// and ApplyDelta. It never advances on a failed or rolled-back commit, on
// single-row operations, or on silent tampering.
// Invariant checks use it to assert a table is either fully old-generation
// or fully new-generation ("a round is atomic"), and Generation() != since
// asks whether anything committed since a caller last looked.
//
// # Version — every mutation attempt through the API
//
// Store.Version advances on every content mutation performed through the
// store API: bulk commits, single-row inserts/deletes/updates, and
// rollbacks included (a rolled-back commit bumps it even though the content
// is unchanged — conservative, at worst forcing one unnecessary full
// reconciliation). It is the counter a control-plane shadow copy guards its
// trust with: an unchanged Version proves nobody else touched the store.
// Two things deliberately do NOT advance it, because the control plane must
// not be able to notice them for free: silent hardware tampering (the
// Tamper* methods — only a read-back audit may discover those), and tiered
// tier re-placement (the logical population is untouched, so
// Version-guarded shadows stay valid across placement rounds).
//
// # Snapshot generation — everything the data plane can observe
//
// Snapshotter.LookupSnapshot returns a token that advances whenever the
// compiled lookup snapshot changes: every Version-visible mutation, plus
// the two Version-invisible ones above (tampering, tier placement). It
// exists because ordinal-based consumers — LookupIndexBatch callers and the
// LookupCache — hold dense ordinals that are only meaningful against the
// exact snapshot that produced them. This is the one counter that is never
// blind: if the bits a lookup would serve changed, the token changed.
//
// Rule of thumb: invariant checks key on Generation, control-plane shadows
// key on Version, data-plane caches key on the snapshot generation. Using a
// coarser counter where a finer one is required serves stale data (e.g. a
// cache keyed on Generation would survive a single-row update); using a
// finer one where a coarser one suffices merely costs spurious work.
package tcam
