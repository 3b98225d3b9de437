module Fork_spec = Fork_spec

let all = [ Cluster_spec.spec; Compart_spec.spec; Explore_spec.spec; Fork_spec.spec ]
