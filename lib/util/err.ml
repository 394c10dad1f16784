exception Unreachable of string

let () =
  Printexc.register_printer (function
    | Unreachable msg -> Some (Printf.sprintf "Unreachable(%s)" msg)
    | _ -> None)

let invalid msg = raise (Invalid_argument msg)
let invalidf fmt = Printf.ksprintf invalid fmt
let unreachable msg = raise (Unreachable msg)
