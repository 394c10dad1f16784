(* On-disk codec for one column of a JDewey inverted list (paper
   Section III-D).

   A column is a sorted sequence of JDewey numbers; equal numbers are
   adjacent, so the in-memory form is a run list [(value, count)] (the row
   start of each run is the cumulative count).  Two block-level schemes are
   implemented, mirroring the paper's two compression schemes from C-Store:

   - [Delta]: for columns with many distinct values.  Each block stores the
     first value verbatim and every subsequent value as a delta from its
     predecessor; the (rare) runs longer than one row carry an explicit
     count behind a flag bit.
   - [Rle]: for columns with few distinct values.  Runs are stored as
     (value-delta, count) pairs - the paper's (v, r, c) triples with [r]
     implicit as the running sum of counts.

   [encode] picks the scheme per column from the run/entry ratio, which is
   the paper's "many distinct values" vs "few distinct values" distinction
   made concrete. *)

type scheme = Delta | Rle

type run = { value : int; count : int }

let block_entries = 128
(* Runs per block.  With ~4-byte entries this approximates the paper's
   disk-block granularity while keeping per-block headers amortized. *)

let choose_scheme (runs : run array) =
  let entries = Array.fold_left (fun a r -> a + r.count) 0 runs in
  if entries = 0 then Delta
  else if 2 * Array.length runs <= entries then Rle
  else Delta

(* Delta-scheme entry: the delta is shifted left one bit; the low bit flags
   a multi-row run whose count follows.  Consecutive runs have strictly
   increasing values, so the delta itself is >= 1 and nothing is lost. *)
let write_delta_entry buf dv count =
  if count = 1 then Varint.write buf (dv lsl 1)
  else begin
    Varint.write buf ((dv lsl 1) lor 1);
    Varint.write buf count
  end

let read_delta_entry c =
  let tagged = Varint.read c in
  let dv = tagged lsr 1 in
  let count = if tagged land 1 = 1 then Varint.read c else 1 in
  (dv, count)

let encode_with buf scheme (runs : run array) =
  Buffer.add_char buf (match scheme with Delta -> 'D' | Rle -> 'R');
  Varint.write buf (Array.length runs);
  let n = Array.length runs in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + block_entries) in
    (* Block header: first value verbatim, plus its count. *)
    Varint.write buf runs.(!i).value;
    Varint.write buf runs.(!i).count;
    let prev = ref runs.(!i).value in
    incr i;
    while !i < stop do
      let r = runs.(!i) in
      let dv = r.value - !prev in
      (match scheme with
      | Rle ->
          Varint.write buf dv;
          Varint.write buf r.count
      | Delta -> write_delta_entry buf dv r.count);
      prev := r.value;
      incr i
    done
  done

let encode buf (runs : run array) =
  let scheme = choose_scheme runs in
  encode_with buf scheme runs;
  scheme

let decode (c : Varint.cursor) : run array =
  let scheme =
    match c.data.[c.pos] with
    | 'D' -> Delta
    | 'R' -> Rle
    | ch -> Xk_util.Err.invalidf "Column_codec.decode: bad tag %C" ch
  in
  Varint.skip c 1;
  let n = Varint.read c in
  let runs = Array.make n { value = 0; count = 0 } in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + block_entries) in
    let v = Varint.read c in
    let cnt = Varint.read c in
    runs.(!i) <- { value = v; count = cnt };
    let prev = ref v in
    incr i;
    while !i < stop do
      let dv, count =
        match scheme with
        | Rle ->
            let dv = Varint.read c in
            let count = Varint.read c in
            (dv, count)
        | Delta -> read_delta_entry c
      in
      let value = !prev + dv in
      runs.(!i) <- { value; count };
      prev := value;
      incr i
    done
  done;
  runs

let encoded_size (runs : run array) =
  let buf = Buffer.create 256 in
  let (_ : scheme) = encode buf runs in
  Buffer.length buf
