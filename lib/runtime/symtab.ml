(** Symbol interning with a weakly-held oblist.

    [intern] returns the same symbol object for the same name while that
    symbol is otherwise reachable; but the table itself holds its symbols
    weakly, so symbols no longer referenced anywhere else are reclaimed and
    their entries dropped — the Friedman–Wise oblist-entry elimination the
    paper mentions Chez Scheme implements. *)

type entry = { mutable word : Word.t }

type t = {
  heap : Heap.t;
  table : (string, entry) Hashtbl.t;
  scanner_id : int;
}

let create heap =
  let table = Hashtbl.create 64 in
  let scanner_id =
    Heap.add_callback heap
      (Heap.Weak_scanner
         (fun lookup ->
           let dead = ref [] in
           Hashtbl.iter
             (fun name e ->
               match lookup e.word with
               | Some w -> e.word <- w
               | None -> dead := name :: !dead)
             table;
           List.iter (Hashtbl.remove table) !dead))
  in
  { heap; table; scanner_id }

let dispose t = Heap.remove_callback t.heap t.scanner_id

(** Intern [name]: return the existing symbol or create one. *)
let intern t name =
  match Hashtbl.find_opt t.table name with
  | Some e -> e.word
  | None ->
      let s = Obj.string_of_ocaml t.heap name in
      let sym = Obj.make_symbol t.heap ~name:s in
      Hashtbl.add t.table name { word = sym };
      sym

let mem t name = Hashtbl.mem t.table name
let count t = Hashtbl.length t.table

(** All interned symbols as [(name, word)], sorted by name so the listing
    is canonical (hash-table iteration order is not). *)
let entries t =
  Hashtbl.fold (fun name e acc -> (name, e.word) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Adopt [(name, word)] pairs restored from a heap image.  [word] must be
    the symbol's address in [t]'s own heap (i.e. already relocated).
    Existing entries for the same name are overwritten — restore into a
    fresh machine before interning anything. *)
let restore t pairs =
  List.iter (fun (name, word) -> Hashtbl.replace t.table name { word }) pairs
