(* Umbrella module for the simulation support library. *)

module Rng = Rng
module Dist = Dist
module Stats = Stats
module Json = Json
