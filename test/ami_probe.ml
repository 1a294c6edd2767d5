(* Prints the mutual information and AMI of a fixed 1,024-VM labelling
   pair in hex ([%h]), so two runs can be compared bit for bit.  The
   test rules run it with and without OCAMLRUNPARAM=R (randomized hash
   tables) and diff the outputs: the float sums must not depend on
   hash-table layout. *)

module Rng = Cm_util.Rng
module Ami = Cm_inference.Ami

let () =
  let n = 1024 in
  let rng = Rng.create 7 in
  (* A ring of 16 tiers of 64, and a noisy re-clustering of it: a
     tenth of the VMs land in one of 40 scattered labels. *)
  let a = Array.init n (fun i -> i / 64) in
  let b =
    Array.init n (fun i ->
        if Rng.uniform rng < 0.1 then 100 + Rng.int rng 40 else (i / 64) * 3)
  in
  Printf.printf "mi %h\nami %h\n" (Ami.mutual_information a b) (Ami.ami a b)
