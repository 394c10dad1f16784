(* Column store: roundtrip fidelity, store-backed query equality, and the
   paper's I/O claim (queries decode only the columns they join). *)

open Xk_index

let check = Alcotest.check
let tc = Alcotest.test_case

let tmpfile name = Filename.concat (Filename.get_temp_dir_name ()) name

let with_store corpus f =
  let label = Xk_encoding.Labeling.label corpus in
  let idx = Index.build label in
  let path = tmpfile "xk_jstore_test.col" in
  Jstore.write idx path;
  let store = Jstore.open_file path in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f idx store)

let columns_roundtrip () =
  let corpus = Xk_datagen.Random_tree.generate (Xk_datagen.Rng.create 11) in
  with_store corpus (fun idx store ->
      check Alcotest.int "term count" (Index.term_count idx)
        (Jstore.term_count store);
      for id = 0 to Index.term_count idx - 1 do
        let mem = Index.jlist idx id in
        let sid = Option.get (Jstore.term_id store (Index.term idx id)) in
        let disk = Jstore.jlist store sid in
        check Alcotest.int "rows" (Jlist.length mem) (Jlist.length disk);
        check Alcotest.int "max_len" (Jlist.max_len mem) (Jlist.max_len disk);
        for level = 1 to Jlist.max_len mem do
          let rm = Tutil.column_runs (Jlist.column mem ~level) in
          let rd = Tutil.column_runs (Jlist.column disk ~level) in
          if rm <> rd then
            Alcotest.failf "column %d of %s differs" level (Index.term idx id)
        done;
        for r = 0 to Jlist.length mem - 1 do
          check Alcotest.int "node" (Jlist.node mem r) (Jlist.node disk r);
          check (Alcotest.float 0.) "score" (Jlist.score mem r) (Jlist.score disk r);
          check Alcotest.int "row len" (Jlist.row_len mem r) (Jlist.row_len disk r)
        done
      done)

let store_backed_queries_prop =
  QCheck.Test.make ~count:100
    ~name:"store-backed join & top-K = in-memory (random trees)"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 3))
    (fun (seed, k) ->
      let corpus = Xk_datagen.Random_tree.generate (Xk_datagen.Rng.create seed) in
      with_store corpus (fun idx store ->
          let rng = Xk_datagen.Rng.create (seed + 61) in
          let q = Tutil.random_query rng ~k ~alphabet:4 in
          let ids = List.filter_map (Index.term_id idx) q in
          if List.length ids <> List.length q then true
          else begin
            let ids = List.sort_uniq Int.compare ids in
            let mem_lists =
              Array.of_list (List.map (Index.jlist idx) ids)
            in
            let disk_lists =
              Array.of_list
                (List.map
                   (fun id ->
                     Jstore.jlist store
                       (Option.get (Jstore.term_id store (Index.term idx id))))
                   ids)
            in
            let damping = Index.damping idx in
            let run lists sem = Xk_core.Join_query.run lists damping sem in
            let same a b =
              List.length a = List.length b
              && List.for_all2
                   (fun (x : Xk_core.Join_query.hit) (y : Xk_core.Join_query.hit) ->
                     x.level = y.level && x.value = y.value
                     && Float.abs (x.score -. y.score) < 1e-9)
                   a b
            in
            let ok =
              same (run mem_lists Xk_core.Join_query.Elca)
                (run disk_lists Xk_core.Join_query.Elca)
              && same (run mem_lists Xk_core.Join_query.Slca)
                   (run disk_lists Xk_core.Join_query.Slca)
            in
            (* Top-K through store-backed score lists. *)
            let slists lists =
              Array.map (fun jl -> Score_list.make jl damping) lists
            in
            let tk lists =
              Xk_core.Topk_keyword.topk (slists lists) damping ~k:5
            in
            ok && same (tk mem_lists) (tk disk_lists)
          end))

let io_laziness () =
  (* Keywords living only at deep levels: joining must not decode the
     shallow... rather, the join starts at the min of max_lens and walks
     up; every level's column is shared, but the store never decodes
     columns of OTHER terms, and never the payloads of unqueried terms. *)
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.05) in
  let label = Xk_encoding.Labeling.label corpus.doc in
  let idx = Index.build label in
  let path = tmpfile "xk_jstore_lazy.col" in
  Jstore.write idx path;
  let store = Jstore.open_file path in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      (* Mix a deep keyword (planted in titles, depth 6) with a shallow one
         ("1998" lives in year attributes, depth 3): the join starts at
         the shallower list's bottom, so the deep list's lower columns are
         never decoded - the Section III-B I/O saving. *)
      let deep = List.hd (List.nth corpus.correlated_queries 0) in
      let q = [ deep; "1998" ] in
      let ids = List.map (fun w -> Option.get (Jstore.term_id store w)) q in
      Jstore.reset_stats store;
      let lists = Array.of_list (List.map (Jstore.jlist store) ids) in
      let lmin =
        Array.fold_left (fun m jl -> min m (Jlist.max_len jl)) max_int lists
      in
      let hits =
        Xk_core.Join_query.run lists (Index.damping idx) Xk_core.Join_query.Elca
      in
      check Alcotest.bool "query returned results" true (hits <> []);
      let s = Jstore.stats store in
      check Alcotest.int "payloads = query terms" (List.length ids)
        s.payloads_decoded;
      let total =
        List.fold_left (fun a id -> a + Jstore.term_bytes store id) 0 ids
      in
      check Alcotest.bool "decoded less than full lists" true
        (s.bytes_decoded < total);
      (* Only levels lmin..1 of each list decode. *)
      check Alcotest.int "columns = k * lmin" (List.length ids * lmin)
        s.columns_decoded;
      check Alcotest.bool "deep levels skipped" true
        (lmin < Array.fold_left (fun m jl -> max m (Jlist.max_len jl)) 0 lists))

let garbage_rejected () =
  let path = tmpfile "xk_jstore_garbage.col" in
  let oc = open_out_bin path in
  output_string oc "garbage bytes here that are not a store";
  close_out oc;
  (match Jstore.open_file path with
  | exception Jstore.Format_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  Sys.remove path

let suite =
  [
    ( "index.jstore",
      [
        tc "columns roundtrip" `Quick columns_roundtrip;
        tc "I/O laziness" `Quick io_laziness;
        tc "garbage rejected" `Quick garbage_rejected;
        QCheck_alcotest.to_alcotest store_backed_queries_prop;
      ] );
  ]
