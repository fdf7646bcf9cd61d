(** Guardians: the paper's primary contribution.

    A guardian is created empty; objects are registered with it for
    preservation; once a registered object has been {e proven} inaccessible
    (except through the guardian mechanism itself) by a collection, the
    collector saves it from destruction and appends it to the guardian's
    queue, from which the mutator retrieves objects one at a time with
    {!retrieve} — the full program, allocation included, is available while
    handling them, and the objects themselves have no special status: they
    may be stored away, re-registered, or simply dropped again.

    At the user level Scheme represents guardians as procedures; here a
    guardian is a typed heap object wrapping the tconc queue plus a stable
    id (the heap word itself moves under copying collections, so the id —
    not the address — keys the guardian's row in {!Stats}).  The Scheme
    layer wraps it back into a procedure, recovering the paper's exact
    interface. *)

let tconc_field = 0
let id_field = 1

(** [make h] creates a new guardian with an empty registered group. *)
let make h =
  let tc = Tconc.make h in
  let gid = Stats.new_guardian (Heap.stats h) in
  let g = Obj.make_typed h ~code:Obj.code_guardian ~len:2 ~init:Word.nil () in
  Obj.set_field h g tconc_field tc;
  Obj.set_field h g id_field (Word.of_fixnum gid);
  g

let is_guardian h w = Obj.has_code h w Obj.code_guardian

let tconc h g =
  assert (is_guardian h g);
  Obj.field h g tconc_field

(** The guardian's stable id. *)
let id h g =
  assert (is_guardian h g);
  Word.to_fixnum (Obj.field h g id_field)

(** Lifecycle metrics of guardian [g]: registrations, resurrections,
    drops, polls, hits, poll latency. *)
let stats h g = Stats.guardian (Heap.stats h) (id h g)

(** Register [obj] with guardian [g].  An object may be registered with more
    than one guardian, or several times with the same guardian (it is then
    retrievable once per registration). *)
let register h g obj =
  let tc = tconc h g in
  Heap.protected_add h ~gid:(id h g) ~obj ~rep:obj ~tconc:tc

(** Generalized interface (paper Section 5): when [obj] becomes
    inaccessible the guardian yields [rep] instead of the object itself.
    [rep] is kept alive by the registration; [obj] is {e not} saved, so
    something smaller than the object can stand in for it during clean-up.
    [register] is the special case [rep = obj]. *)
let register_with_rep h g ~obj ~rep =
  let tc = tconc h g in
  Heap.protected_add h ~gid:(id h g) ~obj ~rep ~tconc:tc

(** Retrieve one object proven inaccessible, or [None].  Never blocks, never
    triggers a collection: overhead is paid only per clean-up actually
    performed. *)
let retrieve h g =
  let result = Tconc.dequeue h (tconc h g) in
  Stats.count_poll (Heap.stats h) ~gid:(id h g) ~hit:(result <> None)
    ~epoch:(Heap.gc_epoch h);
  result

(** Objects currently waiting in the guardian's inaccessible group. *)
let pending_count h g = Tconc.length h (tconc h g)

let pending_list h g = Tconc.to_list h (tconc h g)
