(* Binary max-heap keyed by float priorities, used by the top-K operators
   to hold generated-but-blocked results. *)

type 'a t = {
  mutable keys : float array;
  mutable vals : 'a array;
  mutable len : int;
}

let create () = { keys = [||]; vals = [||]; len = 0 }

let size h = h.len
let is_empty h = h.len = 0

let grow h v =
  let cap = max 8 (2 * Array.length h.keys) in
  let keys = Array.make cap 0. in
  let vals = Array.make cap v in
  Array.blit h.keys 0 keys 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.vals <- vals

let swap h i j =
  let k = h.keys.(i) and v = h.vals.(i) in
  h.keys.(i) <- h.keys.(j);
  h.vals.(i) <- h.vals.(j);
  h.keys.(j) <- k;
  h.vals.(j) <- v

let push h key v =
  if h.len >= Array.length h.keys then grow h v;
  h.keys.(h.len) <- key;
  h.vals.(h.len) <- v;
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && h.keys.((!i - 1) / 2) < h.keys.(!i) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

(* Neither query below returns a float, an option or a tuple: the top-K
   operators ask them after every sorted access, and a float returned
   across a module boundary is boxed whenever the call is not inlined. *)
let top_at_least h bound = h.len > 0 && h.keys.(0) >= bound
let top_at_least_cell h a i = h.len > 0 && h.keys.(0) >= a.(i)

let pop_value h =
  if h.len = 0 then Err.invalid "Heap.pop_value: empty heap";
  let top = h.vals.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.keys.(0) <- h.keys.(h.len);
    h.vals.(0) <- h.vals.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.len && h.keys.(l) > h.keys.(!m) then m := l;
      if r < h.len && h.keys.(r) > h.keys.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        swap h !i !m;
        i := !m
      end
    done
  end;
  top

let drain h =
  let rec go acc =
    if h.len = 0 then List.rev acc
    else
      let key = h.keys.(0) in
      go ((key, pop_value h) :: acc)
  in
  go []
