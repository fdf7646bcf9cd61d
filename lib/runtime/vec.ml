(** Growable arrays.

    The runtime needs dynamically sized sequences in a few hot places
    (protected lists, root tables, collector work lists).  OCaml 5.1 has no
    [Dynarray], so this small module provides one, both int-specialized
    ([Vec.Int]) and polymorphic ([Vec.Poly]). *)

module Int = struct
  type t = {
    mutable data : int array;
    mutable len : int;
  }

  let create ?(capacity = 16) () = { data = Array.make (max capacity 1) 0; len = 0 }

  let[@inline] length t = t.len

  let[@inline] is_empty t = t.len = 0

  let[@inline] clear t = t.len <- 0

  let reset t =
    t.len <- 0;
    if Array.length t.data > 16 then t.data <- Array.make 16 0

  let ensure t n =
    if n > Array.length t.data then begin
      let cap = ref (Array.length t.data) in
      while !cap < n do
        cap := !cap * 2
      done;
      let data = Array.make !cap 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  (* The growth path stays out of line so [push] inlines to a compare and
     two stores. *)
  let[@inline] push t x =
    if t.len >= Array.length t.data then ensure t (t.len + 1);
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let[@inline] get t i =
    assert (i >= 0 && i < t.len);
    t.data.(i)

  let[@inline] set t i x =
    assert (i >= 0 && i < t.len);
    t.data.(i) <- x

  let[@inline] pop t =
    assert (t.len > 0);
    t.len <- t.len - 1;
    t.data.(t.len)

  let[@inline] truncate t n =
    assert (n >= 0 && n <= t.len);
    t.len <- n

  let iter t ~f =
    for i = 0 to t.len - 1 do
      f t.data.(i)
    done

  let iteri t ~f =
    for i = 0 to t.len - 1 do
      f i t.data.(i)
    done

  let to_list t =
    let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc) in
    loop (t.len - 1) []
end

module Poly = struct
  type 'a t = {
    mutable data : 'a array;
    mutable len : int;
    dummy : 'a;
  }

  let create ?(capacity = 16) ~dummy () =
    { data = Array.make (max capacity 1) dummy; len = 0; dummy }

  let length t = t.len

  let is_empty t = t.len = 0

  let clear t =
    (* Release references so the host GC can reclaim elements. *)
    Array.fill t.data 0 t.len t.dummy;
    t.len <- 0

  let ensure t n =
    if n > Array.length t.data then begin
      let cap = ref (Array.length t.data) in
      while !cap < n do
        cap := !cap * 2
      done;
      let data = Array.make !cap t.dummy in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  let push t x =
    ensure t (t.len + 1);
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let get t i =
    assert (i >= 0 && i < t.len);
    t.data.(i)

  let set t i x =
    assert (i >= 0 && i < t.len);
    t.data.(i) <- x

  let pop t =
    assert (t.len > 0);
    t.len <- t.len - 1;
    let x = t.data.(t.len) in
    t.data.(t.len) <- t.dummy;
    x

  let iter t ~f =
    for i = 0 to t.len - 1 do
      f t.data.(i)
    done

  let to_list t =
    let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc) in
    loop (t.len - 1) []
end
