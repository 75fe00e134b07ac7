//===-- ecas/obs/ChromeTrace.cpp - Chrome trace-event exporter ------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/obs/ChromeTrace.h"

#include "ecas/support/Format.h"

#include <cmath>
#include <map>

using namespace ecas;
using namespace ecas::obs;

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

namespace {
/// Stream-builder for one trace document; keeps the comma bookkeeping in
/// one place.
class EventArray {
public:
  void add(const std::string &Fields) {
    Body += Body.empty() ? "\n  {" : ",\n  {";
    Body += Fields;
    Body += "}";
  }

  std::string finish() const {
    return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" + Body + "\n]}\n";
  }

private:
  std::string Body;
};
} // namespace

/// The fields every rendered event shares, plus an "args" object
/// holding the Detail text and, when nonzero, \p Payload (an instant's
/// Value; spans pass none, since a complete span's Value is its "dur").
static std::string commonFields(const char *Phase, const TraceEvent &E,
                                double TsUs, long long Pid,
                                double Payload = 0.0) {
  std::string Fields = formatString(
      "\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,"
      "\"pid\":%lld,\"tid\":%u",
      escapeJson(E.Name).c_str(), escapeJson(E.Category).c_str(), Phase,
      TsUs, Pid, E.ThreadId);
  std::string Args;
  if (!E.Detail.empty())
    Args = "\"detail\":\"" + escapeJson(E.Detail) + "\"";
  if (Payload != 0.0 && std::isfinite(Payload))
    Args += formatString("%s\"value\":%.6g", Args.empty() ? "" : ",",
                         Payload);
  if (!Args.empty())
    Fields += ",\"args\":{" + Args + "}";
  return Fields;
}

static std::string metadataEvent(const char *What, long long Pid,
                                 long long Tid, const std::string &Name) {
  std::string Fields = formatString(
      "\"name\":\"%s\",\"ph\":\"M\",\"pid\":%lld,\"tid\":%lld,"
      "\"args\":{\"name\":\"%s\"}",
      What, Pid, Tid, escapeJson(Name).c_str());
  return Fields;
}

std::string ecas::obs::renderChromeTrace(const TraceLog &Log) {
  constexpr long long HostPid = 1;
  constexpr long long VirtualPid = 2;
  EventArray Out;
  Out.add(metadataEvent("process_name", HostPid, 0, "host clock"));
  Out.add(metadataEvent("process_name", VirtualPid, 0, "virtual clock"));

  std::map<std::string, double> Running; // cumulative counter values
  for (const TraceEvent &E : Log.Events) {
    double HostUs = (E.HostSeconds - Log.EpochHostSeconds) * 1e6;
    double VirtUs = E.VirtualSeconds * 1e6;
    switch (E.Kind) {
    case EventKind::SpanBegin:
      Out.add(commonFields("B", E, HostUs, HostPid));
      if (E.hasVirtualTime())
        Out.add(commonFields("B", E, VirtUs, VirtualPid));
      break;
    case EventKind::SpanEnd:
      Out.add(commonFields("E", E, HostUs, HostPid));
      if (E.hasVirtualTime())
        Out.add(commonFields("E", E, VirtUs, VirtualPid));
      break;
    case EventKind::SpanComplete:
      Out.add(commonFields("X", E, HostUs, HostPid) +
              formatString(",\"dur\":%.3f", E.Value * 1e6));
      break;
    case EventKind::Instant:
      // Scope "t": thread-scoped instant marker.
      Out.add(commonFields("i", E, HostUs, HostPid, E.Value) +
              ",\"s\":\"t\"");
      if (E.hasVirtualTime())
        Out.add(commonFields("i", E, VirtUs, VirtualPid, E.Value) +
                ",\"s\":\"t\"");
      break;
    case EventKind::Counter: {
      double &Value = Running[E.Name];
      Value += E.Value;
      Out.add(formatString(
          "\"name\":\"%s\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":%.3f,"
          "\"pid\":%lld,\"tid\":0,\"args\":{\"value\":%.6g}",
          escapeJson(E.Name).c_str(), HostUs, HostPid, Value));
      break;
    }
    }
  }
  return Out.finish();
}

//===----------------------------------------------------------------------===//
// Parse: a strict, minimal recursive-descent JSON reader — just enough
// structure to round-trip what renderChromeTrace emits while rejecting
// any malformed document.
//===----------------------------------------------------------------------===//

namespace {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object } Kind =
      Type::Null;
  bool Bool = false;
  double Number = 0.0;
  std::string String;
  std::vector<JsonValue> Array;
  std::vector<std::pair<std::string, JsonValue>> Object;

  const JsonValue *field(const std::string &Name) const {
    for (const auto &[Key, Value] : Object)
      if (Key == Name)
        return &Value;
    return nullptr;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  ErrorOr<JsonValue> parse() {
    JsonValue Root;
    if (Status S = value(Root); !S.ok())
      return S;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing garbage after document");
    return Root;
  }

private:
  Status fail(const std::string &Why) const {
    return Status::error(ErrCode::ParseError,
                         formatString("json offset %zu: ", Pos) + Why);
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  Status value(JsonValue &Out) {
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return object(Out);
    if (C == '[')
      return array(Out);
    if (C == '"') {
      Out.Kind = JsonValue::Type::String;
      return string(Out.String);
    }
    if (Text.compare(Pos, 4, "true") == 0) {
      Out.Kind = JsonValue::Type::Bool;
      Out.Bool = true;
      Pos += 4;
      return Status::success();
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      Out.Kind = JsonValue::Type::Bool;
      Pos += 5;
      return Status::success();
    }
    if (Text.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      return Status::success();
    }
    return number(Out);
  }

  Status object(JsonValue &Out) {
    Out.Kind = JsonValue::Type::Object;
    ++Pos; // '{'
    if (consume('}'))
      return Status::success();
    while (true) {
      skipSpace();
      std::string Key;
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      if (Status S = string(Key); !S.ok())
        return S;
      if (!consume(':'))
        return fail("expected ':' after key '" + Key + "'");
      JsonValue Member;
      if (Status S = value(Member); !S.ok())
        return S;
      Out.Object.emplace_back(std::move(Key), std::move(Member));
      if (consume(','))
        continue;
      if (consume('}'))
        return Status::success();
      return fail("expected ',' or '}' in object");
    }
  }

  Status array(JsonValue &Out) {
    Out.Kind = JsonValue::Type::Array;
    ++Pos; // '['
    if (consume(']'))
      return Status::success();
    while (true) {
      JsonValue Element;
      if (Status S = value(Element); !S.ok())
        return S;
      Out.Array.push_back(std::move(Element));
      if (consume(','))
        continue;
      if (consume(']'))
        return Status::success();
      return fail("expected ',' or ']' in array");
    }
  }

  Status string(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Status::success();
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("dangling escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code += static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code += static_cast<unsigned>(H - 'a') + 10;
          else if (H >= 'A' && H <= 'F')
            Code += static_cast<unsigned>(H - 'A') + 10;
          else
            return fail("bad hex digit in \\u escape");
        }
        // The emitter only escapes control characters; anything in the
        // BMP round-trips as UTF-8 well enough for trace payloads.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  Status number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    double Parsed = 0.0;
    if (Pos == Start ||
        !parseDouble(Text.substr(Start, Pos - Start), Parsed))
      return fail("malformed number");
    Out.Kind = JsonValue::Type::Number;
    Out.Number = Parsed;
    return Status::success();
  }

  const std::string &Text;
  size_t Pos = 0;
};

} // namespace

ErrorOr<ChromeTraceData> ecas::obs::parseChromeTrace(const std::string &Json) {
  ErrorOr<JsonValue> Root = JsonParser(Json).parse();
  if (!Root)
    return Root.status();

  const JsonValue *Array = nullptr;
  if (Root->Kind == JsonValue::Type::Array) {
    Array = &*Root;
  } else if (Root->Kind == JsonValue::Type::Object) {
    Array = Root->field("traceEvents");
    if (!Array || Array->Kind != JsonValue::Type::Array)
      return Status::error(ErrCode::ParseError,
                           "document has no traceEvents array");
  } else {
    return Status::error(ErrCode::ParseError,
                         "document is neither an array nor an object");
  }

  ChromeTraceData Data;
  Data.Events.reserve(Array->Array.size());
  for (const JsonValue &Item : Array->Array) {
    if (Item.Kind != JsonValue::Type::Object)
      return Status::error(ErrCode::ParseError,
                           "traceEvents element is not an object");
    ChromeTraceEvent E;
    auto TakeString = [&Item](const char *Key, std::string &Out) {
      if (const JsonValue *V = Item.field(Key);
          V && V->Kind == JsonValue::Type::String)
        Out = V->String;
    };
    auto TakeNumber = [&Item](const char *Key, double &Out) {
      if (const JsonValue *V = Item.field(Key);
          V && V->Kind == JsonValue::Type::Number)
        Out = V->Number;
    };
    TakeString("name", E.Name);
    TakeString("cat", E.Category);
    TakeString("ph", E.Phase);
    TakeNumber("ts", E.TimestampUs);
    TakeNumber("dur", E.DurationUs);
    double Pid = 0.0, Tid = 0.0;
    TakeNumber("pid", Pid);
    TakeNumber("tid", Tid);
    if (const JsonValue *Args = Item.field("args");
        Args && Args->Kind == JsonValue::Type::Object)
      if (const JsonValue *V = Args->field("value");
          V && V->Kind == JsonValue::Type::Number)
        E.Value = V->Number;
    E.Pid = static_cast<long long>(Pid);
    E.Tid = static_cast<long long>(Tid);
    if (E.Phase.empty())
      return Status::error(ErrCode::ParseError,
                           "trace event lacks a phase ('ph')");
    Data.Events.push_back(std::move(E));
  }
  return Data;
}
