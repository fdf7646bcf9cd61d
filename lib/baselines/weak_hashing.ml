(** Weak hashing — MIT Scheme / T's [hash]/[unhash] (paper Section 2).

    [hash] maps an object to an integer unique to it (the same integer is
    never returned for a different object); [unhash] maps the integer back
    to the object, or reports that it has been reclaimed.  The integer is a
    weak pointer one can store anywhere.

    Implemented with the runtime's weak-scanner hook: entries track their
    object across copies without keeping it alive. *)

open Gbc_runtime

type entry = { mutable word : Word.t; mutable alive : bool }

type t = {
  heap : Heap.t;
  mutable next : int;
  by_id : (int, entry) Hashtbl.t;
  by_word : (Word.t, int) Hashtbl.t;  (** current-address index, rebuilt by the scanner *)
  scanner_id : int;
}

let create heap =
  let by_id = Hashtbl.create 64 in
  let by_word = Hashtbl.create 64 in
  let scanner_id =
    Heap.add_callback heap (Heap.Weak_scanner (fun lookup ->
        Hashtbl.reset by_word;
        Hashtbl.iter
          (fun id e ->
            if e.alive then begin
              match lookup e.word with
              | Some w ->
                  e.word <- w;
                  Hashtbl.replace by_word w id
              | None -> e.alive <- false
            end)
          by_id))
  in
  { heap; next = 1; by_id; by_word; scanner_id }

let dispose t = Heap.remove_callback t.heap t.scanner_id

(** Unique integer for [obj]; stable for the object's lifetime. *)
let hash t obj =
  match Hashtbl.find_opt t.by_word obj with
  | Some id -> id
  | None ->
      let id = t.next in
      t.next <- id + 1;
      Hashtbl.add t.by_id id { word = obj; alive = true };
      Hashtbl.replace t.by_word obj id;
      id

(** The object [id] was produced from, unless it has been reclaimed. *)
let unhash t id =
  match Hashtbl.find_opt t.by_id id with
  | Some e when e.alive -> Some e.word
  | _ -> None

let live_count t =
  Hashtbl.fold (fun _ e acc -> if e.alive then acc + 1 else acc) t.by_id 0
