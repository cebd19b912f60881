#include "garnet/runtime.hpp"

#include <cassert>

namespace garnet {

namespace {

/// Per-sensor floor between two location-stream messages.
constexpr util::Duration kLocationPublishInterval = util::Duration::seconds(1);

net::MessageBus::Config bus_config(const Runtime::Config& config) {
  net::MessageBus::Config bus = config.bus;
  // Control-plane app types: actuation/coordination state, location
  // hints, and the flow-control credits themselves — shedding credits
  // under load would deadlock the very mechanism that relieves it.
  bus.control_types.push_back(core::kStateChange);
  bus.control_types.push_back(core::kLocationHint);
  bus.control_types.push_back(core::kDeliveryCredit);
  // Recovery replication is control plane too: shedding checkpoints or
  // op-log records under a data flood would corrupt the very standby
  // that the flood makes more likely to be needed.
  bus.control_types.push_back(core::kCheckpointReplica);
  bus.control_types.push_back(core::kOpLogRecord);
  return bus;
}

}  // namespace

Runtime::Runtime(Config config)
    : config_(config),
      telemetry_(config.trace),
      field_(scheduler_, config.field),
      bus_(scheduler_, bus_config(config)),
      auth_(config.auth),
      filtering_(scheduler_, {}),
      dispatch_(bus_, auth_, catalog_),
      orphanage_(bus_, config.orphanage),
      location_(bus_, auth_),
      resource_(bus_, auth_, config.resource),
      replicator_(field_.medium(), location_, {}),
      actuation_(bus_, auth_, replicator_, config.actuation),
      coordinator_(bus_, auth_, resource_, {}),
      catalog_service_(bus_, auth_, catalog_) {
  if (config_.flow.enabled()) dispatch_.set_flow_control(config_.flow);
  if (config_.admission.enabled) {
    admission_ = std::make_unique<net::AdmissionGate>(config_.admission);
    admission_->set_metrics(telemetry_.registry);
    // Goodput the controller steers on: deliveries that reached a
    // consumer, minus work admitted and then shed downstream anyway
    // (bounded-inbox data sheds + zero-credit quarantine sheds) —
    // admitting more than the pipeline can serve scores zero.
    admission_->set_goodput_source([this](std::uint64_t& delivered, std::uint64_t& wasted) {
      delivered = dispatch_.stats().copies_delivered;
      wasted = bus_.shed_stats().data_total() + dispatch_.stats().quarantine_sheds;
    });
    if (config_.flow.enabled()) {
      // The credit window follows the probed data-pool size.
      admission_->set_resize_listener([this](std::uint32_t size) {
        core::FlowControlConfig flow = config_.flow;
        flow.credit_window = size;
        dispatch_.set_flow_control(flow);
      });
    }
  }
  if (config_.recovery.enabled) {
    recovery_ = std::make_unique<RecoveryHarness>(scheduler_, bus_, config_.recovery);
  }
  wire_services();
}

void Runtime::wire_services() {
  // Telemetry: trace spans at every pipeline hop, push-style histograms
  // on the radio and bus, and a pull collector surfacing the services'
  // plain counters through the registry's exposition formats.
  field_.set_tracer(&telemetry_.tracer);
  filtering_.set_tracer(&telemetry_.tracer);
  dispatch_.set_tracer(&telemetry_.tracer);
  actuation_.set_tracer(&telemetry_.tracer);
  field_.medium().set_metrics(telemetry_.registry);
  bus_.set_metrics(telemetry_.registry);
  replicator_.set_metrics(telemetry_.registry);
  telemetry_.registry.add_collector(
      [this](obs::SnapshotBuilder& out) { collect_service_stats(out); });

  // Receivers feed the Filtering Service.
  field_.medium().set_uplink_sink([this](const wireless::ReceptionReport& report) {
    // Tree traffic is radio substrate, not middleware input: beacons and
    // corrupt tree frames die here (before admission — they must not burn
    // data tickets), and an overheard tree data frame is opportunistically
    // decapsulated so the receiver ingests the inner Figure-2 frame.
    auto decision = wireless::tree::decide_at_sink(report.frame);
    using Verdict = wireless::tree::SinkDecision::Verdict;
    if (decision.verdict == Verdict::kBeacon || decision.verdict == Verdict::kCorrupt) return;
    // Admission gates the door before any middleware work: a refused
    // copy costs the pipeline nothing downstream.
    if (admission_ && !admission_->admit_data(scheduler_.now())) return;
    if (decision.verdict == Verdict::kInner) {
      wireless::ReceptionReport inner = report;
      inner.frame = std::move(decision.inner);
      filter_or_hold(inner);
      return;
    }
    filter_or_hold(report);
  });

  // Filtering feeds Dispatching (unique messages) and Location (copies).
  filtering_.set_message_sink([this](const core::DataMessage& message, util::SimTime heard) {
    if (recovery_ != nullptr) {
      // Log the forwarded (stream, seq) so a promoted filtering replica
      // advances its dedup cursors past everything already delivered.
      util::ByteWriter w(6);
      w.u32(message.stream_id.packed());
      w.u16(message.sequence);
      recovery_->log_op("filtering", core::kFilteringOpSeen, w.view());
    }
    dispatch_or_hold(core::as_view(message), heard);
  });
  filtering_.set_reception_sink([this](const core::ReceptionEvent& event) {
    if (location_door_.down()) {
      location_door_.hold([this, event] { location_.observe(event); });
      return;
    }
    location_.observe(event);
  });

  if (recovery_ != nullptr) wire_recovery();

  // Wireless churn from the fault plan: relay crash/restart maps to the
  // sensor's own stop()/start() (its router forgets all routing state —
  // crash semantics), beacon loss/restore flips the router deaf. Wired
  // regardless of recovery: relay churn is a radio regime, not a
  // middleware-process failure.
  if (net::FaultInjector* injector = bus_.fault_injector()) {
    injector->set_relay_fault_handler([this](std::uint32_t node, bool restart) {
      wireless::SensorNode* sensor = field_.find_sensor(node);
      if (sensor == nullptr) return;
      if (restart) {
        sensor->start();
      } else {
        sensor->stop();
      }
    });
    injector->set_beacon_fault_handler([this](std::uint32_t node, bool deaf) {
      wireless::SensorNode* sensor = field_.find_sensor(node);
      if (sensor != nullptr && sensor->router() != nullptr) {
        sensor->router()->set_beacon_deaf(deaf);
      }
    });
  }

  // Unclaimed data goes to the Orphanage; observed acks to Actuation.
  dispatch_.set_orphan_sink(orphanage_.address());
  dispatch_.set_ack_observer(
      [this](std::uint32_t request_id, core::SensorId sensor, util::SimTime at) {
        actuation_.on_ack(request_id, sensor, at);
      });

  // Location as a data stream of its own (optional).
  if (config_.publish_location_stream) {
    location_stream_ = catalog_.allocate_derived();
    catalog_.advertise(*location_stream_, "location", "location", /*derived=*/true);
    location_.set_update_sink(
        [this](core::SensorId sensor, const core::LocationEstimate& estimate) {
          publish_location(sensor, estimate);
        });
  }
}

void Runtime::wire_recovery() {
  recovery_->set_metrics(telemetry_.registry);

  // Dispatch streams its subscription mutations into the replicated op
  // log; the other direction is the promotion replay.
  dispatch_.set_op_sink([this](std::uint16_t kind, util::BytesView payload) {
    recovery_->log_op("dispatch", kind, payload);
  });

  RecoveryHarness::Service filtering = checkpointed("filtering", filtering_);
  // No endpoints: filtering has no bus endpoint, the radio sink feeds it.
  filtering.wipe = [this] { filtering_.reset(); };
  filtering.apply_op = [this](std::uint16_t kind, util::BytesView payload) {
    if (kind != core::kFilteringOpSeen) return;
    util::ByteReader r(payload);
    const std::uint32_t packed = r.u32();
    const core::SequenceNo seq = r.u16();
    if (r.ok()) filtering_.note_seen(core::StreamId::from_packed(packed), seq);
  };
  filtering_door_ = recovery_->manage(std::move(filtering));

  RecoveryHarness::Service dispatch = checkpointed("dispatch", dispatch_);
  dispatch.endpoints = {core::DispatchingService::kEndpointName};
  dispatch.wipe = [this] { dispatch_.reset_state(); };
  dispatch.apply_op = [this](std::uint16_t kind, util::BytesView payload) {
    dispatch_.apply_op(kind, payload);
  };
  // The harness has already run what the door held; credit acks posted
  // while dispatch was down died on the bus, so flows need the kick.
  dispatch.on_restart = [this] { dispatch_.resume_quarantined(); };
  dispatch_door_ = recovery_->manage(std::move(dispatch));

  // Location and catalog are checkpoint-only: their state is soft
  // (re-learnable from the ongoing stream), so gaps cost accuracy, not
  // correctness, and an op log would buy nothing.
  RecoveryHarness::Service location = checkpointed("location", location_);
  location.endpoints = {core::LocationService::kEndpointName};
  // The wipe keeps the receiver layout, so the observations its door
  // held run against it at recovery.
  location.wipe = [this] { location_.reset_state(); };
  location_door_ = recovery_->manage(std::move(location));

  RecoveryHarness::Service catalog = checkpointed("catalog", catalog_);
  catalog.endpoints = {core::CatalogService::kEndpointName};
  catalog.wipe = [this] { catalog_.clear(); };
  recovery_->manage(std::move(catalog));

  // FaultPlan::crashes fire through the injector into the harness.
  if (net::FaultInjector* injector = bus_.fault_injector()) {
    injector->set_crash_handler([this](const std::string& service, bool restart) {
      if (restart) {
        recovery_->restart(service);
      } else {
        recovery_->crash(service);
      }
    });
  }
}

void Runtime::collect_service_stats(obs::SnapshotBuilder& out) {
  // garnet.radio.* comes from the medium's own collector (set_metrics).

  const wireless::tree::TreeStats tree = field_.tree_stats();
  out.counter("garnet.tree.beacons_sent", tree.beacons_sent);
  out.counter("garnet.tree.attaches", tree.attaches);
  out.counter("garnet.tree.reparents", tree.reparents);
  out.counter("garnet.tree.orphaned", tree.orphan_events);
  out.counter("garnet.tree.forwarded", tree.forwarded);
  out.counter("garnet.tree.proxied", tree.proxied);
  out.counter("garnet.tree.dup_dropped", tree.dup_dropped);
  out.counter("garnet.tree.ttl_dropped", tree.ttl_dropped);
  out.counter("garnet.tree.loop_dropped", tree.loop_dropped);
  out.counter("garnet.tree.buffered", tree.buffered);
  out.counter("garnet.tree.spilled", tree.spilled);
  out.gauge("garnet.tree.depth", static_cast<double>(field_.max_tree_depth()));

  const core::FilteringStats& filtering = filtering_.stats();
  out.counter("garnet.filtering.copies_in", filtering.copies_in);
  out.counter("garnet.filtering.malformed", filtering.malformed);
  out.counter("garnet.filtering.duplicates_dropped", filtering.duplicates_dropped);
  out.counter("garnet.filtering.stale_dropped", filtering.stale_dropped);
  out.counter("garnet.filtering.messages_out", filtering.messages_out);
  out.counter("garnet.filtering.reordered", filtering.reordered);
  out.counter("garnet.filtering.streams_seen", filtering.streams_seen);
  out.counter("garnet.filtering.relayed_copies", filtering.relayed_copies);

  const core::DispatchStats& dispatch = dispatch_.stats();
  out.counter("garnet.runtime.external_in", external_in_);
  out.counter("garnet.dispatch.messages_in", dispatch.messages_in);
  out.counter("garnet.dispatch.derived_in", dispatch.derived_in);
  out.counter("garnet.dispatch.copies_delivered", dispatch.copies_delivered);
  out.counter("garnet.dispatch.orphaned", dispatch.orphaned);
  out.counter("garnet.dispatch.acks_observed", dispatch.acks_observed);
  out.counter("garnet.dispatch.rejected_publishes", dispatch.rejected_publishes);
  out.counter("garnet.dispatch.credits_exhausted", dispatch.credits_exhausted);
  out.counter("garnet.dispatch.quarantines", dispatch.quarantines);
  out.counter("garnet.dispatch.quarantine_sheds", dispatch.quarantine_sheds);
  out.counter("garnet.dispatch.credit_acks", dispatch.credit_acks);
  out.counter("garnet.dispatch.resume_redelivered", dispatch.resume_redelivered);
  out.counter("garnet.dispatch.resume_discarded", dispatch.resume_discarded);
  out.counter("garnet.dispatch.resume_missing", dispatch.resume_missing);

  const core::QosStats& qos = dispatch_.subscriptions().qos_stats();
  out.counter("garnet.qos.suppressed_rate", qos.suppressed_rate);
  out.counter("garnet.qos.suppressed_stale", qos.suppressed_stale);

  const core::LocationStats& location = location_.stats();
  out.counter("garnet.location.observations", location.observations);
  out.counter("garnet.location.unknown_receiver", location.unknown_receiver);
  out.counter("garnet.location.hints", location.hints);
  out.counter("garnet.location.hints_rejected", location.hints_rejected);
  out.counter("garnet.location.queries", location.queries);
  out.counter("garnet.location.queries_answered", location.queries_answered);

  const core::ResourceStats& resource = resource_.stats();
  out.counter("garnet.resource.evaluated", resource.evaluated);
  out.counter("garnet.resource.approved", resource.approved);
  out.counter("garnet.resource.modified", resource.modified);
  out.counter("garnet.resource.denied", resource.denied);
  out.counter("garnet.resource.trusted_overrides", resource.trusted_overrides);
  out.counter("garnet.resource.prearm_hits", resource.prearm_hits);
  out.counter("garnet.resource.policy_changes", resource.policy_changes);

  // garnet.replicator.* comes from the replicator's own collector.

  const core::ActuationStats& actuation = actuation_.stats();
  out.counter("garnet.actuation.requests", actuation.requests);
  out.counter("garnet.actuation.denied", actuation.denied);
  out.counter("garnet.actuation.sent", actuation.sent);
  out.counter("garnet.actuation.retries", actuation.retries);
  out.counter("garnet.actuation.acked", actuation.acked);
  out.counter("garnet.actuation.expired", actuation.expired);
  out.counter("garnet.actuation.approval_unreachable", actuation.approval_unreachable);

  const core::CoordinatorStats& coordinator = coordinator_.stats();
  out.counter("garnet.coordinator.reports", coordinator.reports);
  out.counter("garnet.coordinator.rejected_reports", coordinator.rejected_reports);
  out.counter("garnet.coordinator.predictions", coordinator.predictions);
  out.counter("garnet.coordinator.prearms_issued", coordinator.prearms_issued);
  out.counter("garnet.coordinator.policy_changes", coordinator.policy_changes);

  // garnet.bus.* comes from the bus's own collector (set_metrics).

  out.gauge("garnet.field.sensors", static_cast<double>(field_.sensor_count()));
  out.gauge("garnet.catalog.streams", static_cast<double>(catalog_.size()));
  out.gauge("garnet.dispatch.subscriptions",
            static_cast<double>(dispatch_.subscriptions().size()));
  out.gauge("garnet.orphanage.messages", static_cast<double>(orphanage_.total_received()));
}

void Runtime::publish_location(core::SensorId sensor, const core::LocationEstimate& estimate) {
  const util::SimTime now = scheduler_.now();
  const auto last = last_location_publish_.find(sensor);
  if (last != last_location_publish_.end() &&
      now - last->second < kLocationPublishInterval) {
    return;
  }
  last_location_publish_[sensor] = now;

  util::ByteWriter w(3 + 8 * 4);
  w.u24(sensor);
  w.f64(estimate.position.x);
  w.f64(estimate.position.y);
  w.f64(estimate.radius_m);
  w.f64(estimate.confidence);

  core::DataMessage message;
  message.header.set(core::HeaderFlag::kDerived);
  message.stream_id = *location_stream_;
  message.sequence = location_sequence_++;
  message.payload = std::move(w).take();
  dispatch_or_hold(core::as_view(message), now);
}

void Runtime::inject_external(const core::DataMessageView& message) {
  const util::SimTime now = scheduler_.now();
  if (admission_ && !admission_->admit_data(now)) return;
  ++external_in_;
  dispatch_or_hold(message, now);
}

void Runtime::dispatch_or_hold(const core::DataMessageView& message, util::SimTime first_heard) {
  if (dispatch_door_.down()) {
    // The view may alias a caller's buffer: the door keeps an owned copy.
    dispatch_door_.hold([this, message = message.to_owned(), first_heard] {
      dispatch_.on_filtered(message, first_heard);
    });
    return;
  }
  dispatch_.on_filtered(message, first_heard);
}

void Runtime::filter_or_hold(const wireless::ReceptionReport& report) {
  if (filtering_door_.down()) {
    filtering_door_.hold([this, report] { filtering_.ingest(report); });
    return;
  }
  filtering_.ingest(report);
}

void Runtime::deploy_receivers(std::size_t count, double range_m) {
  field_.add_receiver_grid(count, range_m);
  location_.set_receiver_layout(field_.medium().receivers());
}

void Runtime::deploy_transmitters(std::size_t count, double range_m) {
  field_.add_transmitter_grid(count, range_m);
}

void Runtime::deploy_population(const wireless::SensorField::PopulationSpec& spec) {
  field_.add_population(spec);
  for (std::size_t i = 0; i < spec.count; ++i) {
    const auto id = spec.first_id + static_cast<core::SensorId>(i);
    core::SensorProfile profile;
    profile.id = id;
    profile.receive_capable = spec.capabilities.receive_capable;
    profile.constraints[0] = spec.constraints;
    resource_.register_profile(std::move(profile));
  }
}

wireless::SensorNode& Runtime::deploy_sensor(wireless::SensorNode::Config config,
                                             std::unique_ptr<sim::MobilityModel> mobility) {
  core::SensorProfile profile;
  profile.id = config.id;
  profile.receive_capable = config.capabilities.receive_capable;
  for (const wireless::StreamSpec& stream : config.streams) {
    profile.constraints[stream.id] = stream.constraints;
  }
  resource_.register_profile(std::move(profile));
  return field_.add_sensor(std::move(config), std::move(mobility));
}

core::ConsumerIdentity Runtime::provision(core::Consumer& consumer, const std::string& name,
                                          std::uint8_t priority,
                                          std::optional<core::TrustLevel> trust) {
  if (trust) auth_.grant_trust(name, *trust);
  auto identity = auth_.register_consumer(name, consumer.address(), priority);
  assert(identity.ok() && "consumer name already registered");
  consumer.set_identity(identity.value());
  consumer.set_tracer(&telemetry_.tracer);
  consumer.set_metrics(telemetry_.registry);
  return identity.value();
}

void Runtime::deprovision(core::Consumer& consumer) {
  const core::ConsumerToken token = consumer.identity().token;
  auth_.revoke(token);
  dispatch_.drop_consumer(consumer.address());
  resource_.withdraw_consumer(token);
}

core::StreamId Runtime::create_derived_stream(const std::string& name,
                                              const std::string& stream_class) {
  const core::StreamId id = catalog_.allocate_derived();
  catalog_.advertise(id, name, stream_class, /*derived=*/true);
  return id;
}

}  // namespace garnet
