// Management interface: runtime configuration and stats of a middlebox.
//
// The paper's middleboxes "expose monitoring and management interfaces to
// modify their behavior on-the-fly". This is a text command endpoint; an
// operator (or orchestration) sends "stats", "get <gauge>", or app-defined
// commands which are delegated to MiddleboxApp::on_mgmt.
#pragma once

#include <string>

#include "core/middlebox.h"

namespace rb {

/// Narrow interface the adaptation controller (src/ctrl, a layer above
/// core) implements so the "ctrl" mgmt verb can delegate to it without
/// core linking against ctrl.
class CtrlMgmtHandler {
 public:
  virtual ~CtrlMgmtHandler() = default;
  /// Handle a "ctrl <subcommand>" line (the verb is already stripped).
  virtual std::string ctrl_mgmt(const std::string& cmd) = 0;
};

/// Same pattern for the live-reconfiguration manager (src/sim, two
/// layers above core): the "reconfig" mgmt verb delegates through this.
class ReconfigMgmtHandler {
 public:
  virtual ~ReconfigMgmtHandler() = default;
  /// Handle a "reconfig <subcommand>" line (the verb already stripped).
  virtual std::string reconfig_mgmt(const std::string& cmd) = 0;
};

/// And for the city conductor (src/city, the top layer): the "city" mgmt
/// verb delegates whole-city queries (cell list, slot budgets, cross-shard
/// xlink buffer depths) and per-cell verb routing through this.
class CityMgmtHandler {
 public:
  virtual ~CityMgmtHandler() = default;
  /// Handle a "city <subcommand>" line (the verb already stripped).
  virtual std::string city_mgmt(const std::string& cmd) = 0;
};

class MgmtEndpoint {
 public:
  explicit MgmtEndpoint(MiddleboxRuntime& rt) : rt_(&rt) {}

  /// Attach the deployment's adaptation controller (enables "ctrl ...").
  void set_ctrl(CtrlMgmtHandler* ctrl) { ctrl_ = ctrl; }
  /// Attach the deployment's reconfig manager (enables "reconfig ...").
  void set_reconfig(ReconfigMgmtHandler* rc) { reconfig_ = rc; }
  /// Attach the city conductor (enables "city ...").
  void set_city(CityMgmtHandler* city) { city_ = city; }

  /// Handle one command line; returns the response text. Unknown verbs
  /// are forwarded to the app; if the app does not claim them either,
  /// the reply lists every registered verb (see also "help").
  std::string handle(const std::string& cmd);

  /// Space-separated list of the registered core verbs.
  static std::string verb_list();

 private:
  MiddleboxRuntime* rt_;
  CtrlMgmtHandler* ctrl_ = nullptr;
  ReconfigMgmtHandler* reconfig_ = nullptr;
  CityMgmtHandler* city_ = nullptr;
};

}  // namespace rb
